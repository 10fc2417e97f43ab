package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"adawave/internal/datasets"
	"adawave/internal/grid"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// extFixture is one dataset + config of the out-of-core equivalence gate.
type extFixture struct {
	name string
	ds   *pointset.Dataset
	cfg  Config
}

// externalFixtures returns the equivalence fixtures of the out-of-core
// path: the paper's Fig. 2 running example, the Fig. 7 evaluation mixture,
// and the 33-dimensional dermatology stand-in (Haar basis — long filters
// densify high-dimensional grids). Each fixture runs with both merged-grid
// representations: the flat path and the block-compressed one must
// reproduce the in-RAM result bit for bit.
func externalFixtures(t *testing.T) []extFixture {
	t.Helper()
	derm, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	haar := DefaultConfig()
	haar.Basis = wavelet.Haar()
	haar.Scale = 0 // automatic scale, as the high-dimensional tests use
	base := []extFixture{
		{"fig2", synth.RunningExampleSized(800, 1).Flat(), DefaultConfig()},
		{"fig7", synth.Evaluation(700, 0.8, 1).Flat(), DefaultConfig()},
		{"dermatology", pointset.MustFromSlices(derm.Points), haar},
	}
	out := make([]extFixture, 0, 2*len(base))
	for _, fx := range base {
		packed, flat := fx.cfg, fx.cfg
		// The merge always emits a packed grid; the /flat half carries the
		// deprecated PackedCells=false, which core ignores.
		packed.PackedCells, flat.PackedCells = true, false
		out = append(out,
			extFixture{fx.name + "/packed", fx.ds, packed},
			extFixture{fx.name + "/flat", fx.ds, flat})
	}
	return out
}

// TestClusterDatasetExternalEquivalence is the out-of-core acceptance
// gate: across random chunk sizes and spill thresholds (always-spill
// included), ClusterDatasetExternal must reproduce ClusterDataset bit for
// bit on every fixture — labels, threshold, curve, cell counts — and leave
// the spill directory empty after every iteration.
func TestClusterDatasetExternalEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, fx := range externalFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			eng, err := NewEngine(fx.cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.ClusterDatasetContext(context.Background(), fx.ds)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(fx.name))))
			for iter := 0; iter < 6; iter++ {
				chunk := 1 + rng.Intn(fx.ds.N+500)
				spill := []int64{1, 1 << 14, 1 << 30}[iter%3]
				tmp := t.TempDir()
				got, err := eng.ClusterDatasetExternal(ctx, fx.ds, ExternalOptions{
					ChunkPoints: chunk,
					SpillBytes:  spill,
					TempDir:     tmp,
				})
				if err != nil {
					t.Fatalf("chunk=%d spill=%d: %v", chunk, spill, err)
				}
				assertResultsEqual(t, want, got)
				entries, err := os.ReadDir(tmp)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 0 {
					t.Fatalf("chunk=%d spill=%d: %d leaked spill entries", chunk, spill, len(entries))
				}
			}
		})
	}
}

// TestClusterDatasetExternalMapped runs the full out-of-core stack — write
// a mapped file, open it, cluster through the external sort — and checks
// it matches the in-RAM dataset path exactly.
func TestClusterDatasetExternalMapped(t *testing.T) {
	ds := synth.RunningExampleSized(600, 3).Flat()
	path := filepath.Join(t.TempDir(), "fig2.awds")
	w, err := pointset.CreateMapped(path, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N; i++ {
		if err := w.AppendRow(ds.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := pointset.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	eng, err := NewEngine(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.ClusterDatasetContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ClusterDatasetExternal(context.Background(), m.Dataset(), ExternalOptions{
		MaxResidentBytes: 64 << 20,
		TempDir:          t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)
}

// TestClusterDatasetExternalBudgetTooSmall: a budget that cannot even hold
// the per-point outputs must fail with the invalid-input tag, not OOM.
func TestClusterDatasetExternalBudgetTooSmall(t *testing.T) {
	ds := synth.RunningExampleSized(400, 5).Flat()
	eng, err := NewEngine(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.ClusterDatasetExternal(context.Background(), ds, ExternalOptions{MaxResidentBytes: 16})
	if err == nil {
		t.Fatal("absurd budget accepted")
	}
	if !errors.Is(err, grid.ErrInvalidInput) {
		t.Fatalf("error %v is not ErrInvalidInput", err)
	}
}

// TestClusterDatasetExternalCancel: cancellation must unwind with the
// taxonomy error and leave no spill files.
func TestClusterDatasetExternalCancel(t *testing.T) {
	ds := synth.Evaluation(2000, 0.5, 9).Flat()
	eng, err := NewEngine(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tmp := t.TempDir()
	_, err = eng.ClusterDatasetExternal(ctx, ds, ExternalOptions{ChunkPoints: 512, SpillBytes: 1, TempDir: tmp})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, grid.ErrCanceled) {
		t.Fatalf("error %v is not ErrCanceled", err)
	}
	entries, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 0 {
		t.Fatalf("%d leaked spill entries after cancel", len(entries))
	}
}
