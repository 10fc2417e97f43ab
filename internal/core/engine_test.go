package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"adawave/internal/core"
	"adawave/internal/datasets"
	"adawave/internal/grid"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// TestEngineMatchesSequentialRunningExample is the tentpole equivalence
// gate: on the paper's running example the parallel engine must reproduce
// the sequential pipeline label for label at every worker count.
func TestEngineMatchesSequentialRunningExample(t *testing.T) {
	ds := synth.RunningExampleSized(800, 1)
	cfg := core.DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := core.NewEngine(cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := clusterRows(eng, ds.Points)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, want, got)
		})
	}
}

// TestEngineMatchesSequentialHighDim repeats the gate on the 33-dimensional
// dermatology stand-in (Haar basis, automatic scale — the high-dimensional
// protocol).
func TestEngineMatchesSequentialHighDim(t *testing.T) {
	ds, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Scale = 0
	cfg.Basis = wavelet.Haar()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		eng, err := core.NewEngine(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := clusterRows(eng, ds.Points)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, want, got)
	}
}

// TestEngineMatchesSequentialEvaluation covers the Fig. 7/8 evaluation
// mixture at heavy noise, where threshold selection does real work.
func TestEngineMatchesSequentialEvaluation(t *testing.T) {
	ds := synth.Evaluation(700, 0.8, 1)
	cfg := core.DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clusterRows(eng, ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)
}

// TestEngineMultiResolutionMatchesSequential checks the concurrent
// per-level finishing stage against the oracle run at each level.
func TestEngineMultiResolutionMatchesSequential(t *testing.T) {
	ds := synth.RunningExampleSized(400, 1)
	cfg := core.DefaultConfig()
	want := oracleLevels(t, ds.Points, cfg, 4)
	eng, err := core.NewEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ClusterMultiResolutionDatasetContext(context.Background(), ds.Flat(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("levels: want %d, got %d", len(want), len(got))
	}
	for l := range want {
		assertResultsEqual(t, want[l], got[l])
	}
}

// TestEngineConcurrentClusterCalls exercises one shared Engine from many
// goroutines (the -race CI job runs this with the race detector): every
// concurrent call must reproduce the sequential labels exactly.
func TestEngineConcurrentClusterCalls(t *testing.T) {
	ds := synth.RunningExampleSized(500, 1)
	cfg := core.DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := clusterRows(eng, ds.Points)
				if err != nil {
					errs <- err
					return
				}
				for i := range want.Labels {
					if want.Labels[i] != got.Labels[i] {
						errs <- fmt.Errorf("label %d: want %d, got %d", i, want.Labels[i], got.Labels[i])
						return
					}
				}
				if got.Threshold != want.Threshold {
					errs <- fmt.Errorf("threshold: want %v, got %v", want.Threshold, got.Threshold)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineValidation mirrors the sequential entry points' error behavior.
func TestEngineValidation(t *testing.T) {
	if _, err := core.NewEngine(core.Config{}, 0); err == nil {
		t.Fatal("zero config must not validate")
	}
	eng, err := core.NewEngine(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clusterRows(eng, nil); err == nil {
		t.Fatal("empty input must error")
	}
}

// clusterRows runs eng on [][]float64 rows through the one flat entry
// point, copying them with FromSlices as slice callers do.
func clusterRows(eng *core.Engine, points [][]float64) (*core.Result, error) {
	ds, err := pointset.FromSlices(points)
	if err != nil {
		return nil, err
	}
	return eng.ClusterDatasetContext(context.Background(), ds)
}

// TestEngineLevelsZero covers the ablation path that skips the transform.
func TestEngineLevelsZero(t *testing.T) {
	ds := synth.RunningExampleSized(300, 1)
	cfg := core.DefaultConfig()
	cfg.Levels = 0
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clusterRows(eng, ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)
}

// TestMultiResolutionDensificationCap: a multi-resolution pass applies the
// same per-level growth cap as a one-shot run, through the engine and a
// Session alike. 400 uniform 6-D points at scale 64 under the 6-tap DB6
// filter densify past the 2¹⁶-cell floor within one level, so both calls
// must fail with the densification error, tagged ErrInvalidInput.
func TestMultiResolutionDensificationCap(t *testing.T) {
	mins, maxs := make([]float64, 6), []float64{1, 1, 1, 1, 1, 1}
	ds := pointset.MustFromSlices(synth.UniformBox(rand.New(rand.NewSource(1)), 400, mins, maxs))
	cfg := core.DefaultConfig()
	cfg.Basis = wavelet.DB6()
	cfg.Scale = 64
	eng, err := core.NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, oneShot := eng.ClusterDatasetContext(ctx, ds)
	if !errors.Is(oneShot, grid.ErrInvalidInput) || !strings.Contains(oneShot.Error(), "densified") {
		t.Fatalf("one-shot: err %v, want the densification error", oneShot)
	}
	if _, err := eng.ClusterMultiResolutionDatasetContext(ctx, ds, 1); !errors.Is(err, grid.ErrInvalidInput) || err.Error() != oneShot.Error() {
		t.Fatalf("engine multi-resolution: err %v, want %v", err, oneShot)
	}
	s := eng.NewSession()
	if err := s.AppendContext(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MultiResolutionContext(ctx, 1); !errors.Is(err, grid.ErrInvalidInput) || err.Error() != oneShot.Error() {
		t.Fatalf("session multi-resolution: err %v, want %v", err, oneShot)
	}
}
