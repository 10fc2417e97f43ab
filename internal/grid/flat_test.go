package grid_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
	"adawave/internal/wavelet"
)

// randomGrid builds a sparse grid with n occupied cells at the given sizes,
// with small-integer masses (so dyadic filter taps stay exact and the flat
// and map engines agree bit for bit).
func randomGrid(t *testing.T, sizes []int, n int, seed int64) *oracle.Grid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := oracle.New(sizes)
	coords := make([]int, len(sizes))
	for i := 0; i < n; i++ {
		for j, s := range sizes {
			coords[j] = rng.Intn(s)
		}
		g.Cells[oracle.MakeKey(coords)] += float64(1 + rng.Intn(4))
	}
	return g
}

// gridsEqual compares two map grids cell for cell within tol.
func gridsEqual(t *testing.T, want, got *oracle.Grid, tol float64) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("cell count: want %d, got %d", want.Len(), got.Len())
	}
	for k, v := range want.Cells {
		gv, ok := got.Cells[k]
		if !ok {
			t.Fatalf("missing cell %v (density %g)", k.Coords(), v)
		}
		if math.Abs(gv-v) > tol {
			t.Fatalf("cell %v: want %g, got %g", k.Coords(), v, gv)
		}
	}
}

func TestFlatRoundTrip(t *testing.T) {
	g := randomGrid(t, []int{32, 16, 8}, 100, 1)
	f := oracle.FlatFromGrid(g)
	if f.Len() != g.Len() {
		t.Fatalf("flat len %d, map len %d", f.Len(), g.Len())
	}
	gridsEqual(t, g, oracle.ToGrid(f), 0)
	// Canonical order and Find.
	for i := 1; i < f.Len(); i++ {
		if grid.CmpCoords(f.CellCoords(i-1), f.CellCoords(i)) >= 0 {
			t.Fatalf("not in canonical order at %d", i)
		}
	}
	for i := 0; i < f.Len(); i++ {
		if got := f.Find(f.CellCoords(i)); got != i {
			t.Fatalf("Find(cell %d) = %d", i, got)
		}
	}
	if f.Find([]uint16{65535, 65535, 65535}) != -1 {
		t.Fatal("Find of absent cell should be -1")
	}
}

// transformDim is the one-dimension flat transform without a deadline,
// into a fresh grid.
func transformDim(t *testing.T, f *grid.FlatGrid, j int, b wavelet.Basis, workers int) *grid.FlatGrid {
	t.Helper()
	out := &grid.FlatGrid{}
	if err := grid.TransformDimFlatCtx(context.Background(), f, j, b, workers, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTransformDimFlatMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
		n     int
		basis wavelet.Basis
		tol   float64
		// palette, when set, is the set of coordinates drawn from in
		// every dimension instead of the whole range.
		palette []int
	}{
		{"2d-cdf22", []int{128, 128}, 900, wavelet.CDF22(), 0, nil},
		{"2d-haar", []int{128, 128}, 900, wavelet.Haar(), 0, nil},
		{"2d-cdf13", []int{64, 64}, 400, wavelet.CDF13(), 0, nil},
		{"2d-db4", []int{64, 64}, 400, wavelet.DB4(), 1e-12, nil},
		{"3d-cdf22", []int{32, 16, 8}, 300, wavelet.CDF22(), 0, nil},
		{"1d-haar", []int{256}, 90, wavelet.Haar(), 0, nil},
		{"odd-sizes", []int{31, 17}, 200, wavelet.CDF22(), 0, nil},
		// Six 16-bit dimensions: the suffix after dimension 0 needs 80
		// bits, more than one sort key holds, and the palette makes cells
		// that tie on the packed leading dimensions common.
		{"wide-suffix", []int{9, 65535, 65535, 65535, 65535, 65535}, 3000, wavelet.CDF22(), 0, []int{0, 1, 2, 3, 65533, 65534}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGrid(t, tc.sizes, tc.n, 7)
			if tc.palette != nil {
				rng := rand.New(rand.NewSource(7))
				g = oracle.New(tc.sizes)
				coords := make([]int, len(tc.sizes))
				for i := 0; i < tc.n; i++ {
					for j, s := range tc.sizes {
						coords[j] = tc.palette[rng.Intn(len(tc.palette))] % s
					}
					g.Cells[oracle.MakeKey(coords)] += float64(1 + rng.Intn(4))
				}
			}
			for j := range tc.sizes {
				want := oracle.TransformDim(g, j, tc.basis)
				for _, workers := range []int{1, 2, 4} {
					got := transformDim(t, oracle.FlatFromGrid(g), j, tc.basis, workers)
					gridsEqual(t, want, oracle.ToGrid(got), tc.tol)
				}
			}
		})
	}
}

func TestTransformDimFlatParallelThreshold(t *testing.T) {
	// A grid big enough to cross the parallel cutoff must still match.
	g := randomGrid(t, []int{256, 256}, 3*grid.ParallelCellCutoff, 11)
	want := oracle.TransformDim(g, 0, wavelet.CDF22())
	for _, workers := range []int{1, 3, 8} {
		got := transformDim(t, oracle.FlatFromGrid(g), 0, wavelet.CDF22(), workers)
		gridsEqual(t, want, oracle.ToGrid(got), 0)
	}
}

func TestTransformLevelsFlatMatchesMap(t *testing.T) {
	g := randomGrid(t, []int{128, 128}, 1200, 3)
	want, err := oracle.TransformLevels(g, wavelet.CDF22(), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grid.TransformLevelsFlatCtx(context.Background(), oracle.FlatFromGrid(g), wavelet.CDF22(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("levels: want %d, got %d", len(want), len(got))
	}
	for l := range want {
		gridsEqual(t, want[l], oracle.ToGrid(got[l]), 0)
	}
	// Every returned level must stay in canonical order (Find depends on
	// it), including earlier levels after deeper ones were computed.
	for l, fg := range got {
		for i := 1; i < fg.Len(); i++ {
			if grid.CmpCoords(fg.CellCoords(i-1), fg.CellCoords(i)) >= 0 {
				t.Fatalf("level %d not in canonical order at cell %d", l+1, i)
			}
		}
	}
	// Error parity: too-small dimension.
	small := randomGrid(t, []int{2, 2}, 3, 1)
	_, errMap := oracle.TransformLevels(small, wavelet.CDF22(), 2)
	_, errFlat := grid.TransformLevelsFlatCtx(context.Background(), oracle.FlatFromGrid(small), wavelet.CDF22(), 2, 2)
	if errMap == nil || errFlat == nil || errMap.Error() != errFlat.Error() {
		t.Fatalf("error parity: map %v, flat %v", errMap, errFlat)
	}
}

// TestQuantizeFlatMatchesMap: the sharded bounding-box scan and
// quantization of a dataset above the parallel cutoff reproduce the
// oracle's quantizer at every worker count.
func TestQuantizeFlatMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 3 * grid.ParallelCellCutoff
	points := make([][]float64, n)
	mins, maxs := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}, []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := range points {
		points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
		for j, v := range points[i] {
			mins[j], maxs[j] = min(mins[j], v), max(maxs[j], v)
		}
	}
	ds := pointset.MustFromSlices(points)
	var want *oracle.Grid
	for _, workers := range []int{1, 2, 3, 8} {
		qp, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range mins {
			if qp.Mins[j] != mins[j] || qp.Maxs[j] != maxs[j] {
				t.Fatalf("workers=%d: bounding box differs in dim %d", workers, j)
			}
		}
		if want == nil {
			want, _ = oracle.Quantize(qp, points)
		}
		got, _ := grid.QuantizeDataset(t, qp, ds, workers)
		gridsEqual(t, want, oracle.ToGrid(got), 0)
		if got.TotalMass() != float64(n) {
			t.Fatalf("workers=%d: total mass %g, want %d", workers, got.TotalMass(), n)
		}
	}
}

// TestNewQuantizerParallelErrorParity: a non-finite coordinate in the
// middle of a dataset above the parallel cutoff is reported by the sharded
// scan with the one-worker scan's message at every worker count.
func TestNewQuantizerParallelErrorParity(t *testing.T) {
	n := 3 * grid.ParallelCellCutoff
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{float64(i), 1}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		points[n/2] = []float64{v, 1}
		ds := pointset.MustFromSlices(points)
		_, errSeq := grid.NewQuantizerDatasetCtx(context.Background(), ds, 64, 1)
		for _, workers := range []int{2, 4, 8} {
			_, errPar := grid.NewQuantizerDatasetCtx(context.Background(), ds, 64, workers)
			if errSeq == nil || errPar == nil || errSeq.Error() != errPar.Error() {
				t.Fatalf("%v workers=%d: one worker %v, parallel %v", v, workers, errSeq, errPar)
			}
		}
	}
}

func TestComponentsFlatMatchesMap(t *testing.T) {
	for _, conn := range []grid.Connectivity{grid.Faces, grid.Full} {
		name := "faces"
		if conn == grid.Full {
			name = "full"
		}
		t.Run(name, func(t *testing.T) {
			g := randomGrid(t, []int{48, 48}, 700, 9)
			want, err := oracle.Components(g, conn)
			if err != nil {
				t.Fatal(err)
			}
			f := oracle.FlatFromGrid(g)
			got, ncomp, err := grid.ComponentsFlatAutoCtx(context.Background(), f, conn, 1)
			if err != nil {
				t.Fatal(err)
			}
			max := -1
			for _, l := range want {
				if l > max {
					max = l
				}
			}
			if ncomp != max+1 {
				t.Fatalf("component count: want %d, got %d", max+1, ncomp)
			}
			for i := 0; i < f.Len(); i++ {
				if wl := want[oracle.CellKey(f, i)]; wl != int(got[i]) {
					t.Fatalf("cell %v: map label %d, flat label %d", f.CellCoords(i), wl, got[i])
				}
			}
		})
	}
}

func TestComponentsFlatHighDimLimit(t *testing.T) {
	sizes := make([]int, grid.MaxFullDim+1)
	for i := range sizes {
		sizes[i] = 4
	}
	f := oracle.FlatFromGrid(randomGrid(t, sizes, 10, 2))
	if _, _, err := grid.ComponentsFlatAutoCtx(context.Background(), f, grid.Full, 1); err == nil {
		t.Fatal("expected dimension-limit error for Full connectivity")
	}
}

func TestFlatDropBelowAndThreshold(t *testing.T) {
	g := randomGrid(t, []int{32, 32}, 300, 4)
	f := oracle.FlatFromGrid(g)
	gm := g.Clone()
	gm.DropBelow(2)
	f2 := f.Clone()
	f2.DropBelow(2)
	gridsEqual(t, gm, oracle.ToGrid(f2), 0)
	gridsEqual(t, g.Threshold(3), oracle.ToGrid(f.Threshold(3)), 0)
	// Order is preserved by both.
	for i := 1; i < f2.Len(); i++ {
		if grid.CmpCoords(f2.CellCoords(i-1), f2.CellCoords(i)) >= 0 {
			t.Fatalf("DropBelow broke canonical order at %d", i)
		}
	}
}
