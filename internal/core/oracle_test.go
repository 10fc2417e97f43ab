package core_test

import (
	"context"
	"fmt"
	"testing"

	"adawave/internal/core"
	"adawave/internal/metrics"
	"adawave/internal/oracle"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

var (
	assertResultsEqual = core.AssertResultsEqual
	engineCluster      = core.EngineCluster
)

// oracleLevels is the multi-resolution oracle: oracle.Cluster run once per
// level from 1 to maxLevels.
func oracleLevels(t *testing.T, points [][]float64, cfg core.Config, maxLevels int) []*core.Result {
	t.Helper()
	out := make([]*core.Result, maxLevels)
	for l := range out {
		cfg.Levels = l + 1
		res, err := oracle.Cluster(points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[l] = res
	}
	return out
}

// engineLevels runs the engine's multi-resolution pass at three workers.
func engineLevels(t *testing.T, ds *synth.Dataset, cfg core.Config, maxLevels int) []*core.Result {
	t.Helper()
	eng, err := core.NewEngine(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ClusterMultiResolutionDatasetContext(context.Background(), ds.Flat(), maxLevels)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMultiResolution(t *testing.T) {
	ds := synth.Evaluation(1500, 0.5, 41)
	cfg := core.DefaultConfig()
	results := engineLevels(t, ds, cfg, 3)
	if len(results) != 3 {
		t.Fatalf("got %d levels", len(results))
	}
	for i, want := range oracleLevels(t, ds.Points, cfg, 3) {
		assertResultsEqual(t, want, results[i])
	}
	for i, r := range results {
		if r.Levels != i+1 {
			t.Fatalf("level field %d at index %d", r.Levels, i)
		}
		if len(r.Labels) != len(ds.Points) {
			t.Fatalf("level %d: %d labels", i+1, len(r.Labels))
		}
	}
	// Level 1 should be the most accurate on this data.
	ami1 := metrics.AMINonNoise(ds.Labels, results[0].Labels, synth.NoiseLabel)
	if ami1 < 0.55 {
		t.Fatalf("level-1 AMI %v", ami1)
	}
	// Deeper levels quantize coarser: cluster count should not explode.
	if results[2].NumClusters > results[0].NumClusters+5 {
		t.Fatalf("coarse level has more clusters (%d) than fine (%d)",
			results[2].NumClusters, results[0].NumClusters)
	}
}

// TestMultiResolutionMatchesCluster: level ℓ of the multi-resolution pass
// must equal a one-shot run with Levels=ℓ, and both must equal the oracle
// at ℓ.
func TestMultiResolutionMatchesCluster(t *testing.T) {
	ds := synth.Evaluation(600, 0.4, 51)
	cfg := core.DefaultConfig()
	multi := engineLevels(t, ds, cfg, 2)
	want := oracleLevels(t, ds.Points, cfg, 2)
	for l := 1; l <= 2; l++ {
		cfg.Levels = l
		eng, err := core.NewEngine(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := eng.ClusterDatasetContext(context.Background(), ds.Flat())
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, direct, multi[l-1])
		assertResultsEqual(t, want[l-1], direct)
	}
}

// TestOracleMatchesEngineEveryBasis: the oracle and the engine agree bit
// for bit — curve, threshold and labels — under every basis, the
// irrational DB4/DB6 taps included: both sum every transform output in
// ascending input-coordinate order and every component mass in canonical
// cell order. An oracle that summed in map iteration order differed from
// the engine in the last bits of hundreds of curve values under DB4/DB6.
func TestOracleMatchesEngineEveryBasis(t *testing.T) {
	fixtures := []struct {
		name string
		ds   *synth.Dataset
	}{
		{"running", synth.RunningExampleSized(300, 1)},
		{"evaluation", synth.Evaluation(300, 0.5, 2)},
		{"blobs3d", synth.Blobs(3, 400, 3, 0.05, 3)},
	}
	for _, fx := range fixtures {
		for _, b := range wavelet.Bases() {
			for _, levels := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/levels=%d", fx.name, b.Name, levels), func(t *testing.T) {
					cfg := core.DefaultConfig()
					cfg.Scale, cfg.Basis, cfg.Levels = 64, b, levels
					// Several oracle runs: each must be deterministic on its
					// own, whatever order the map yields its cells in.
					for run := 0; run < 3; run++ {
						want, err := oracle.Cluster(fx.ds.Points, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := engineCluster(fx.ds.Points, cfg)
						if err != nil {
							t.Fatal(err)
						}
						assertResultsEqual(t, want, got)
					}
				})
			}
		}
	}
}
