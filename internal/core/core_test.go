package core

import (
	"context"
	"testing"

	"adawave/internal/metrics"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// engineCluster runs rows through the engine every binary ships, at three
// workers — the path the paper-property tests below check.
func engineCluster(points [][]float64, cfg Config) (*Result, error) {
	eng, err := NewEngine(cfg, 3)
	if err != nil {
		return nil, err
	}
	ds, err := pointset.FromSlices(points)
	if err != nil {
		return nil, err
	}
	return eng.ClusterDatasetContext(context.Background(), ds)
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Scale = 1 },
		func(c *Config) { c.Levels = -1 },
		func(c *Config) { c.Scale = 8; c.Levels = 4 },
		func(c *Config) { c.Basis = wavelet.Basis{} },
		func(c *Config) { c.Threshold = nil },
		func(c *Config) { c.MinClusterCells = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestClusterEmptyInput(t *testing.T) {
	if _, err := engineCluster(nil, DefaultConfig()); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestClusterTwoBlobsNoNoise(t *testing.T) {
	ds := synth.Blobs(2, 500, 2, 0.02, 1)
	res, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("found %d clusters, want 2 (threshold %v, kept %d/%d cells)",
			res.NumClusters, res.Threshold, res.CellsKept, res.CellsTransformed)
	}
	// The paper's fully-labeled-data protocol: Gaussian fringes filtered
	// as noise are reassigned to the nearest cluster.
	full := AssignNoiseToNearest(ds.Points, res.Labels, 3)
	ami := metrics.AMI(ds.Labels, full)
	if ami < 0.95 {
		t.Fatalf("AMI on clean blobs = %v, want ≥ 0.95", ami)
	}
}

func TestAssignNoiseToNearest(t *testing.T) {
	points := [][]float64{{0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}, {0.2, 0.1}, {4.9, 5.2}}
	labels := []int{0, 0, 1, 1, Noise, Noise}
	got := AssignNoiseToNearest(points, labels, 2)
	if got[4] != 0 || got[5] != 1 {
		t.Fatalf("noise assignment = %v", got)
	}
	// Non-noise labels untouched.
	for i := 0; i < 4; i++ {
		if got[i] != labels[i] {
			t.Fatalf("cluster label %d modified", i)
		}
	}
	// Input slice not mutated.
	if labels[4] != Noise {
		t.Fatal("input mutated")
	}
	// All-noise input: everything becomes cluster 0.
	allNoise := AssignNoiseToNearest(points, []int{Noise, Noise, Noise, Noise, Noise, Noise}, 1)
	for _, l := range allNoise {
		if l != 0 {
			t.Fatalf("all-noise fallback = %v", allNoise)
		}
	}
	if out := AssignNoiseToNearest(nil, nil, 1); len(out) != 0 {
		t.Fatal("empty input should return empty")
	}
}

func TestClusterSinglePointPerCell(t *testing.T) {
	// A degenerate but legal input: all points identical.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	res, err := engineCluster(pts, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("identical points should form one cluster, got %d", res.NumClusters)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatalf("labels = %v", res.Labels)
		}
	}
}

func TestClusterEvaluation50(t *testing.T) {
	ds := synth.Evaluation(2000, 0.50, 7)
	res, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ami := metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	if ami < 0.6 {
		t.Fatalf("AMI at 50%% noise = %v (clusters=%d, threshold=%v), want ≥ 0.6",
			ami, res.NumClusters, res.Threshold)
	}
}

func TestClusterRunningExample(t *testing.T) {
	ds := synth.RunningExample(3)
	res, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ami := metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	if ami < 0.5 {
		t.Fatalf("AMI on running example = %v (clusters=%d), want ≥ 0.5", ami, res.NumClusters)
	}
}

func TestOrderInsensitivity(t *testing.T) {
	ds := synth.Evaluation(800, 0.5, 11)
	res1, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shuffled := ds.Clone()
	shuffled.Shuffle(99)
	res2, err := engineCluster(shuffled.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Same partition regardless of input order (labels may be renumbered,
	// but sizes are sorted so they should match exactly here).
	if res1.NumClusters != res2.NumClusters {
		t.Fatalf("cluster count depends on order: %d vs %d", res1.NumClusters, res2.NumClusters)
	}
	if ami := metrics.AMI(res1.Labels, reorder(res2.Labels, shuffled, ds)); ami < 0.999 {
		t.Fatalf("partitions differ across input orders: AMI %v", ami)
	}
}

// reorder maps the labels of the shuffled run back to the original point
// order by matching coordinates (the shuffle permuted points in place).
func reorder(shuffledLabels []int, shuffled, orig *synth.Dataset) []int {
	type key [2]float64
	lookup := make(map[key]int, len(shuffledLabels))
	for i, p := range shuffled.Points {
		lookup[key{p[0], p[1]}] = shuffledLabels[i]
	}
	out := make([]int, len(orig.Points))
	for i, p := range orig.Points {
		out[i] = lookup[key{p[0], p[1]}]
	}
	return out
}

func TestDeterminism(t *testing.T) {
	ds := synth.Evaluation(500, 0.6, 21)
	res1, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Labels {
		if res1.Labels[i] != res2.Labels[i] {
			t.Fatalf("non-deterministic label at %d", i)
		}
	}
	if res1.Threshold != res2.Threshold {
		t.Fatalf("non-deterministic threshold %v vs %v", res1.Threshold, res2.Threshold)
	}
}

func TestHighNoiseRobustness(t *testing.T) {
	// At 80% noise AdaWave should still beat AMI 0.4 (the paper reports
	// ~0.6 at 80% on the full-size dataset).
	ds := synth.Evaluation(2000, 0.80, 13)
	res, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ami := metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	if ami < 0.4 {
		t.Fatalf("AMI at 80%% noise = %v (clusters=%d, threshold=%v)", ami, res.NumClusters, res.Threshold)
	}
}

func TestResultAccessors(t *testing.T) {
	ds := synth.Blobs(3, 200, 2, 0.02, 5)
	res, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.ClusterSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total+res.NoiseCount() != len(ds.Points) {
		t.Fatalf("sizes (%d) + noise (%d) != n (%d)", total, res.NoiseCount(), len(ds.Points))
	}
	if res.CellsQuantized == 0 || res.CellsTransformed == 0 || res.CellsKept == 0 {
		t.Fatalf("cell diagnostics missing: %+v", res)
	}
	if len(res.Curve) != res.CellsTransformed {
		t.Fatalf("curve length %d != transformed cells %d", len(res.Curve), res.CellsTransformed)
	}
}

func TestLevelsZeroSkipsTransform(t *testing.T) {
	ds := synth.Blobs(2, 300, 2, 0.02, 9)
	cfg := DefaultConfig()
	cfg.Levels = 0
	res, err := engineCluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellsTransformed != res.CellsQuantized {
		t.Fatalf("levels=0 should not change the grid: %d vs %d", res.CellsTransformed, res.CellsQuantized)
	}
	if res.NumClusters < 2 {
		t.Fatalf("found %d clusters", res.NumClusters)
	}
}

func TestAllBasesWork(t *testing.T) {
	ds := synth.Evaluation(1000, 0.5, 31)
	for _, b := range wavelet.Bases() {
		cfg := DefaultConfig()
		cfg.Basis = b
		res, err := engineCluster(ds.Points, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ami := metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
		if ami < 0.5 {
			t.Errorf("%s: AMI %v below 0.5", b.Name, ami)
		}
	}
}

func TestThresholdSeparatesNoise(t *testing.T) {
	// Most ground-truth noise should be labeled Noise, and most cluster
	// points should not.
	ds := synth.Evaluation(2000, 0.5, 61)
	res, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var noiseCaught, clusterKept, nNoise, nCluster int
	for i, l := range ds.Labels {
		if l == synth.NoiseLabel {
			nNoise++
			if res.Labels[i] == Noise {
				noiseCaught++
			}
		} else {
			nCluster++
			if res.Labels[i] != Noise {
				clusterKept++
			}
		}
	}
	if frac := float64(noiseCaught) / float64(nNoise); frac < 0.5 {
		t.Fatalf("only %.0f%% of noise filtered", frac*100)
	}
	if frac := float64(clusterKept) / float64(nCluster); frac < 0.75 {
		t.Fatalf("only %.0f%% of cluster points kept", frac*100)
	}
}
