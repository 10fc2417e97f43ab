package core

import (
	"context"
	"math/rand"
	"testing"

	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// TestAffineInvariance: AdaWave quantizes against the data's own bounding
// box, so translating and (positively) scaling every point must yield the
// identical labeling.
func TestAffineInvariance(t *testing.T) {
	ds := synth.Evaluation(300, 0.5, 11)
	cfg := DefaultConfig()
	base, err := engineCluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		scale, shift float64
	}{
		{"translate", 1, 17.5},
		{"magnify", 1000, 0},
		{"shrink", 1e-4, -3},
		{"both", 42.0, 9.25},
	} {
		moved := make([][]float64, len(ds.Points))
		for i, p := range ds.Points {
			q := make([]float64, len(p))
			for j, v := range p {
				q[j] = v*tc.scale + tc.shift
			}
			moved[i] = q
		}
		res, err := engineCluster(moved, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range base.Labels {
			if base.Labels[i] != res.Labels[i] {
				t.Fatalf("%s: label[%d] changed %d → %d under affine transform",
					tc.name, i, base.Labels[i], res.Labels[i])
			}
		}
	}
}

// TestDuplicationConsistency: appending an exact copy of every point keeps
// each copy in the same cluster as its original (grid densities double,
// which must not change the relative structure).
func TestDuplicationConsistency(t *testing.T) {
	ds := synth.Evaluation(200, 0.5, 12)
	n := ds.N()
	doubled := make([][]float64, 0, 2*n)
	doubled = append(doubled, ds.Points...)
	doubled = append(doubled, ds.Points...)
	res, err := engineCluster(doubled, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if res.Labels[i] != res.Labels[n+i] {
			t.Fatalf("point %d and its duplicate got labels %d and %d",
				i, res.Labels[i], res.Labels[n+i])
		}
	}
}

// TestLabelsAreCanonical: labels must be exactly Noise ∪ {0…NumClusters−1}
// with every cluster label non-empty and label 0 the heaviest cluster. The
// pass runs through the stage list by hand (exactly what
// ClusterDatasetContext does) so the kept grid and its final per-cell
// labels stay readable afterwards: the kept mass summed per label must
// never increase with the label number.
func TestLabelsAreCanonical(t *testing.T) {
	ds := synth.Evaluation(400, 0.6, 13)
	pds, err := pointset.FromSlices(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	st := &pipeState{cfg: eng.cfg, w: 3, ds: pds}
	res, err := eng.runStages(context.Background(), st, stageList[stageFromTop:])
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, l := range res.Labels {
		if l != Noise && (l < 0 || l >= res.NumClusters) {
			t.Fatalf("label %d outside [0,%d)", l, res.NumClusters)
		}
		counts[l]++
	}
	for c := 0; c < res.NumClusters; c++ {
		if counts[c] == 0 {
			t.Fatalf("cluster %d is empty", c)
		}
	}
	if res.NumClusters < 2 {
		t.Fatalf("%d clusters; the mass order needs at least two", res.NumClusters)
	}
	mass := make([]float64, res.NumClusters)
	for i, l := range st.keptLabels {
		if l >= 0 {
			mass[l] += st.kept.Vals[i]
		}
	}
	for c := 1; c < res.NumClusters; c++ {
		if mass[c] > mass[c-1] {
			t.Fatalf("cluster %d has kept mass %v, heavier than cluster %d's %v", c, mass[c], c-1, mass[c-1])
		}
	}
}

// TestCurveIsSortedDescending: the diagnostic curve must be the descending
// density curve the threshold was chosen on, with the threshold value at
// the reported index.
func TestCurveIsSortedDescending(t *testing.T) {
	ds := synth.Evaluation(300, 0.5, 14)
	res, err := engineCluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i] > res.Curve[i-1] {
			t.Fatalf("curve not descending at %d", i)
		}
	}
	if res.ThresholdIndex < 0 || res.ThresholdIndex >= len(res.Curve) {
		t.Fatalf("threshold index %d outside curve of %d", res.ThresholdIndex, len(res.Curve))
	}
	if res.Curve[res.ThresholdIndex] != res.Threshold {
		t.Fatalf("curve[%d] = %v, want the threshold %v",
			res.ThresholdIndex, res.Curve[res.ThresholdIndex], res.Threshold)
	}
}

// TestNoiseRobustnessRamp: adding pure uniform noise to a clean clustering
// problem must not break the cluster structure (the key claim of the
// paper). The cluster size matters — grid methods need enough points per
// cell — so the ramp uses the scale the paper's own sweep uses.
func TestNoiseRobustnessRamp(t *testing.T) {
	if testing.Short() {
		t.Skip("ramp uses paper-scale clusters")
	}
	for _, gamma := range []float64{0.3, 0.6, 0.85} {
		ds := synth.Evaluation(1500, gamma, 15)
		res, err := engineCluster(ds.Points, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters < 4 || res.NumClusters > 9 {
			t.Fatalf("γ=%.2f: %d clusters, want ≈ 5", gamma, res.NumClusters)
		}
	}
}

// TestNonFiniteRejected: NaN/Inf coordinates must be rejected up front, not
// silently funneled into an edge cell.
func TestNonFiniteRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	pts[17][1] = rng.NormFloat64() / 0 // ±Inf
	if _, err := engineCluster(pts, DefaultConfig()); err == nil {
		t.Fatal("Inf coordinate should error")
	}
}
