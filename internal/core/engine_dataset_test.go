package core_test

import (
	"context"
	"fmt"
	"testing"

	"adawave/internal/core"
	"adawave/internal/datasets"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// The Dataset equivalence gate (exercised with -race in CI): the flat
// row-major path — memoized cell ids, per-level ancestor tables — must
// reproduce both the [][]float64 engine path and the sequential reference
// label for label, threshold and cell counts included.

func assertDatasetPathMatches(t *testing.T, points [][]float64, cfg core.Config, workerCounts []int) {
	t.Helper()
	want, err := oracle.Cluster(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := pointset.MustFromSlices(points)
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := core.NewEngine(cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			dsRes, err := eng.ClusterDatasetContext(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, want, dsRes)
		})
	}
}

// TestDatasetPathRunningExample covers the Fig. 1/2 running example.
func TestDatasetPathRunningExample(t *testing.T) {
	ds := synth.RunningExampleSized(800, 1)
	assertDatasetPathMatches(t, ds.Points, core.DefaultConfig(), []int{1, 2, 4})
}

// TestDatasetPathEvaluationMixture covers the Fig. 7 mixture at heavy
// noise, where threshold selection does real work.
func TestDatasetPathEvaluationMixture(t *testing.T) {
	ds := synth.Evaluation(700, 0.8, 1)
	assertDatasetPathMatches(t, ds.Points, core.DefaultConfig(), []int{1, 4})
}

// TestDatasetPathDermatology covers the 33-dimensional dermatology stand-in
// (Haar basis, automatic scale — the high-dimensional protocol).
func TestDatasetPathDermatology(t *testing.T) {
	ds, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Scale = 0
	cfg.Basis = wavelet.Haar()
	assertDatasetPathMatches(t, ds.Points, cfg, []int{1, 4})
}

// TestDatasetPathLevelsZero covers the transform-skipping ablation, whose
// dataset path must clone the base grid before coefficient dropping.
func TestDatasetPathLevelsZero(t *testing.T) {
	ds := synth.RunningExampleSized(300, 1)
	cfg := core.DefaultConfig()
	cfg.Levels = 0
	assertDatasetPathMatches(t, ds.Points, cfg, []int{1, 4})
}

// TestDatasetPathMultiResolution: every level of the multi-resolution pass
// must agree between the sequential reference run at each level and the
// flat dataset path (which quantizes and transforms once).
func TestDatasetPathMultiResolution(t *testing.T) {
	ds := synth.RunningExampleSized(400, 1)
	cfg := core.DefaultConfig()
	want := oracleLevels(t, ds.Points, cfg, 4)
	flat := ds.Flat()
	for _, workers := range []int{1, 4} {
		eng, err := core.NewEngine(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ { // repeat: pooled buffers must not leak state
			got, err := eng.ClusterMultiResolutionDatasetContext(context.Background(), flat, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("levels: got %d, want %d", len(got), len(want))
			}
			for l := range want {
				assertResultsEqual(t, want[l], got[l])
			}
		}
	}
}

// TestDatasetPathValidation mirrors the slice entry points' error behavior.
func TestDatasetPathValidation(t *testing.T) {
	eng, err := core.NewEngine(core.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ClusterDatasetContext(context.Background(), nil); err == nil {
		t.Fatal("nil dataset must error")
	}
	if _, err := eng.ClusterDatasetContext(context.Background(), &pointset.Dataset{}); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, err := eng.ClusterMultiResolutionDatasetContext(context.Background(), nil, 3); err == nil {
		t.Fatal("nil dataset must error")
	}
	if _, err := clusterRows(eng, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows must error")
	}
}

// TestAssignNoiseToNearestParallelMatchesSequential: the sharded
// nearest-centroid search must be bit-identical to one worker for any
// worker count (centroid sums stay sequential).
func TestAssignNoiseToNearestParallelMatchesSequential(t *testing.T) {
	ds := synth.Evaluation(700, 0.75, 9)
	res, err := oracle.Cluster(ds.Points, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := core.AssignNoiseToNearestParallel(ds.Points, res.Labels, 3, 1)
	for _, workers := range []int{2, 4, 7} {
		got := core.AssignNoiseToNearestParallel(ds.Points, res.Labels, 3, workers)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: label %d: got %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
	for _, l := range want {
		if l == core.Noise {
			t.Fatal("no noise label may survive assignment")
		}
	}
}
