package grid_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"adawave/internal/core"
	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// FuzzClusterMapped is the differential check of recorded bounds: every
// file OpenMapped accepts is clustered over its mapped view and over a
// Clone of its rows, which records no bounds, in RAM and out of core, at a
// scale whose grids are counted densely and at one whose grids are
// radix-sorted. When the file records no bounds, or bounds bit-equal to
// the scan's, the view must behave exactly as the clone: the same labels,
// or the same error. Otherwise the view must fail: with the clone's error
// when a coordinate is non-finite, else with an ErrCorruptDataset-tagged
// one. Nothing may panic. The seed corpus in
// testdata/fuzz/FuzzClusterMapped holds version 01 and 02 files of a few
// clusters: valid, with a short trailer, with NaN, narrow and wide bounds,
// and with a NaN row.
func FuzzClusterMapped(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.awds")
	w, err := pointset.CreateMapped(path, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i := range 40 {
		c := float64(i%4) * 8
		if err := w.AppendRow([]float64{c + float64(i%5)*0.25, c - float64(i%3)*0.5}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.awds")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := pointset.OpenMapped(path)
		if err != nil {
			return
		}
		defer m.Close()
		view := m.Dataset()
		if view.N > 512 || view.D > 3 {
			return // keep each input cheap to cluster
		}
		clone := view.Clone()
		exact := true
		if mins, maxs, ok := view.Bounds(); ok {
			q, err := grid.NewQuantizerDatasetCtx(context.Background(), clone, 4, 1)
			exact = err == nil && bitsEqual(mins, q.Mins) && bitsEqual(maxs, q.Maxs)
		}
		for _, scale := range []int{4, 32} {
			cfg := core.DefaultConfig()
			cfg.Scale = scale
			eng, err := core.NewEngine(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, external := range []bool{false, true} {
				run := func(ds *pointset.Dataset) ([]int, error) {
					var res *core.Result
					var err error
					if external {
						opts := core.ExternalOptions{ChunkPoints: 7, SpillBytes: 1, TempDir: t.TempDir()}
						res, err = eng.ClusterDatasetExternal(context.Background(), ds, opts)
					} else {
						res, err = eng.ClusterDatasetContext(context.Background(), ds)
					}
					if err != nil {
						return nil, err
					}
					return res.Labels, nil
				}
				got, gerr := run(view)
				want, werr := run(clone)
				switch {
				case exact && gerr == nil && werr == nil:
					if !slices.Equal(got, want) {
						t.Fatalf("scale %d external %v: view labels differ from the clone's", scale, external)
					}
				case exact || errors.Is(werr, grid.ErrInvalidInput) && errors.Is(gerr, grid.ErrInvalidInput):
					if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
						t.Fatalf("scale %d external %v: view error %v, clone error %v", scale, external, gerr, werr)
					}
				default:
					if !errors.Is(gerr, pointset.ErrCorruptDataset) && (werr == nil || gerr == nil || gerr.Error() != werr.Error()) {
						t.Fatalf("scale %d external %v: bounds that are not the scan's gave %v (clone: %v)", scale, external, gerr, werr)
					}
				}
			}
		}
	})
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
