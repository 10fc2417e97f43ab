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
	// denseChunk, when set, is a chunk size whose count tables fit within
	// its rows: a run with it takes the dense route, which makes no spill
	// directory even at SpillBytes 1.
	denseChunk int
}

// externalFixtures returns the equivalence fixtures of the out-of-core
// path: the paper's Fig. 2 running example, the Fig. 7 evaluation mixture,
// and the 33-dimensional dermatology stand-in (Haar basis — long filters
// densify high-dimensional grids). Each fixture runs with both merged-grid
// representations: the flat path and the block-compressed one must
// reproduce the in-RAM result bit for bit. Fig. 7 at scale 16 (256 cells)
// adds the dense route: its 17,500 rows are counted into four tables, one
// per worker, whenever a chunk holds at least their 1024 entries, and
// radix-sorted in chunks otherwise.
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
		{"fig2", synth.RunningExampleSized(800, 1).Flat(), DefaultConfig(), 0},
		{"fig7", synth.Evaluation(700, 0.8, 1).Flat(), DefaultConfig(), 0},
		{"dermatology", pointset.MustFromSlices(derm.Points), haar, 0},
	}
	out := make([]extFixture, 0, 2*len(base))
	for _, fx := range base {
		packed, flat := fx.cfg, fx.cfg
		// The merge always emits a packed grid; the /flat half carries the
		// deprecated PackedCells=false, which core ignores.
		packed.PackedCells, flat.PackedCells = true, false
		out = append(out,
			extFixture{fx.name + "/packed", fx.ds, packed, 0},
			extFixture{fx.name + "/flat", fx.ds, flat, 0})
	}
	coarse := DefaultConfig()
	coarse.Scale = 16
	return append(out, extFixture{"fig7/scale16", base[1].ds, coarse, 1024})
}

// TestClusterDatasetExternalEquivalence is the out-of-core acceptance
// gate: across random chunk sizes and spill thresholds (always-spill
// included), ClusterDatasetExternal must reproduce ClusterDataset bit for
// bit on every fixture — labels, threshold, curve, cell counts — and leave
// the spill directory empty after every iteration. A fixture with a dense
// chunk also runs it at SpillBytes 1 under a spill base directory that
// does not exist, which fails any run that tries to spill.
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
			if fx.denseChunk > 0 {
				got, err := eng.ClusterDatasetExternal(ctx, fx.ds, ExternalOptions{
					ChunkPoints: fx.denseChunk,
					SpillBytes:  1,
					TempDir:     filepath.Join(t.TempDir(), "absent"),
				})
				if err != nil {
					t.Fatalf("dense chunk=%d: %v", fx.denseChunk, err)
				}
				assertResultsEqual(t, want, got)
			}
		})
	}
}

// writeMapped writes ds into a mapped-Dataset file under t's temp
// directory and returns its path.
func writeMapped(t *testing.T, ds *pointset.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.awds")
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
	return path
}

// openMapped opens the mapped file at path for the rest of the test.
func openMapped(t *testing.T, path string) *pointset.Dataset {
	t.Helper()
	m, err := pointset.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m.Dataset()
}

// TestClusterDatasetExternalMapped runs the full out-of-core stack — write
// a mapped file, open it, cluster through the external sort — and checks
// it matches the in-RAM dataset path exactly. The file records its
// bounding box, so the quantizer scans nothing; the same rows rewritten as
// a version 01 file, which records none, open and cluster identically too,
// in RAM and out of core.
func TestClusterDatasetExternalMapped(t *testing.T) {
	ds := synth.RunningExampleSized(600, 3).Flat()
	path := writeMapped(t, ds)
	view := openMapped(t, path)
	if _, _, ok := view.Bounds(); !ok {
		t.Fatal("mapped file records no bounds")
	}

	eng, err := NewEngine(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.ClusterDatasetContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	opts := ExternalOptions{MaxResidentBytes: 64 << 20, TempDir: t.TempDir()}
	got, err := eng.ClusterDatasetExternal(context.Background(), view, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(t.TempDir(), "v1.awds")
	raw = raw[:len(raw)-16*ds.D]
	copy(raw, "AWDSET01")
	if err := os.WriteFile(v1, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	old := openMapped(t, v1)
	if _, _, ok := old.Bounds(); ok {
		t.Fatal("version 01 file records bounds")
	}
	if got, err = eng.ClusterDatasetExternal(context.Background(), old, opts); err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)
	if got, err = eng.ClusterDatasetContext(context.Background(), old); err != nil {
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

// TestClusterDatasetExternalCancel lands a cancel at every poll point of an
// out-of-core run in turn, on both quantize routes: radix runs spilled to
// disk (scale 128, 16,384 cells against 512-point chunks) and the dense
// count (scale 16, whose two workers' 256-cell tables fit a chunk; its
// spill base directory does not exist, so a run that tried to spill would
// fail).
// Every cancelled run must unwind with the taxonomy error and leave the
// temp directory empty, and the first run that completes must equal the
// in-RAM result. Both routes run over the rows in RAM and over a mapped
// file of them that records their bounds, which the quantize pass checks.
func TestClusterDatasetExternalCancel(t *testing.T) {
	rows := synth.Evaluation(2000, 0.5, 9).Flat()
	bounded := openMapped(t, writeMapped(t, rows))
	for _, c := range []struct {
		name  string
		ds    *pointset.Dataset
		scale int
	}{{"radix", rows, 128}, {"dense", rows, 16}, {"mapped-radix", bounded, 128}, {"mapped-dense", bounded, 16}} {
		t.Run(c.name, func(t *testing.T) {
			ds := c.ds
			cfg := DefaultConfig()
			cfg.Scale = c.scale
			eng, err := NewEngine(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.ClusterDatasetContext(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				tmp := t.TempDir()
				opts := ExternalOptions{ChunkPoints: 512, SpillBytes: 1, TempDir: tmp}
				if c.scale == 16 {
					opts.TempDir = filepath.Join(tmp, "absent")
				}
				got, err := eng.ClusterDatasetExternal(cancelAfterPolls(n), ds, opts)
				entries, rerr := os.ReadDir(tmp)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if len(entries) != 0 {
					t.Fatalf("polls=%d: %d leaked spill entries", n, len(entries))
				}
				if err == nil {
					if n == 0 {
						t.Fatal("a run with no poll left completed")
					}
					assertResultsEqual(t, want, got)
					break
				}
				if !errors.Is(err, grid.ErrCanceled) || got != nil {
					t.Fatalf("polls=%d: got a result %v, err %v; want none and ErrCanceled", n, got != nil, err)
				}
			}
		})
	}
}
