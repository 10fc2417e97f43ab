package grid_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/wavelet"
)

// kernelGrid draws n random cells of the given sizes into a canonical grid
// with signed masses: normal draws, of which a share zeros are exact
// zeros, half of them −0, so negative taps meet zero values. Repeated
// draws of a cell keep the first mass.
func kernelGrid(sizes []int, n int, zeros float64, seed int64) *grid.FlatGrid {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewFlat(sizes, n)
	coords := make([]uint16, len(sizes))
	for i := 0; i < n; i++ {
		for j, s := range sizes {
			coords[j] = uint16(rng.Intn(s))
		}
		v := rng.NormFloat64()
		if rng.Float64() < zeros {
			v = math.Copysign(0, v)
		}
		f.Append(coords, v)
	}
	f.SortCanonical()
	out := grid.NewFlat(sizes, f.Len())
	for i := 0; i < f.Len(); i++ {
		if i > 0 && grid.CmpCoords(f.CellCoords(i-1), f.CellCoords(i)) == 0 {
			continue
		}
		out.Append(f.CellCoords(i), f.Vals[i])
	}
	return out
}

// TestTransformKernelsAgree runs every golden case and a set of random
// grids through the transform chain twice — once with every window merged,
// once with the dense route free to take the windows it qualifies for —
// at one and three workers, and requires bit-identical outcomes. The
// random grids are signed with exact zeros of both signs, swept to two and
// three levels under Haar, CDF(2,2), DB4 and DB6, and include a 6-D grid
// whose suffix keys need 80 bits. The suite must drive windows through both kernels, so a change to
// the dense rule cannot leave either one untested.
func TestTransformKernelsAgree(t *testing.T) {
	type kernelCase struct {
		name   string
		in     *grid.FlatGrid
		basis  wavelet.Basis
		levels []int
	}
	// cases run the whole chain; sweeps also run each single-dimension
	// sweep, whose output may hold a −0 that a later sweep's +0 start
	// would turn into +0.
	var cases, sweeps []kernelCase
	for _, c := range goldenCases(t) {
		cases = append(cases, kernelCase{c.name, c.in, c.basis, c.levels})
	}
	random := []struct {
		sizes []int
		n     int
		zeros float64
	}{
		{[]int{32, 32, 32}, 20000, 0.1},
		{[]int{64, 48, 40}, 6000, 0.1},
		{[]int{16, 16, 16, 16}, 30000, 0.1},
		// Mostly zeros over a suffix space of one word: many outputs sum
		// nothing but zero products, whose sign the +0 start decides.
		{[]int{64, 8}, 150, 0.7},
		{[]int{40, 6, 6}, 400, 0.7},
		{[]int{4, 65535, 65535, 65535, 65535, 65535}, 300, 0.1},
	}
	for i, r := range random {
		in := kernelGrid(r.sizes, r.n, r.zeros, int64(100+i))
		for _, b := range []wavelet.Basis{wavelet.Haar(), wavelet.CDF22(), wavelet.DB4(), wavelet.DB6()} {
			cases = append(cases, kernelCase{fmt.Sprintf("random%v-%s", r.sizes, b.Name), in, b, []int{2, 3}})
			sweeps = append(sweeps, kernelCase{fmt.Sprintf("random%v-%s", r.sizes, b.Name), in, b, nil})
		}
	}
	var dense, merge int64
	for _, workers := range []int{1, 3} {
		for _, c := range cases {
			for _, n := range c.levels {
				var (
					want, got       []*grid.FlatGrid
					wantErr, gotErr error
				)
				if d, _ := grid.TransformKernels(true, func() {
					want, wantErr = grid.TransformLevelsFlatCtx(context.Background(), c.in, c.basis, n, workers)
				}); d != 0 {
					t.Fatalf("%s: %d windows took the dense route with the merge forced", c.name, d)
				}
				d, m := grid.TransformKernels(false, func() {
					got, gotErr = grid.TransformLevelsFlatCtx(context.Background(), c.in, c.basis, n, workers)
				})
				dense, merge = dense+d, merge+m
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || len(got) != len(want) {
					t.Fatalf("%s workers=%d levels=%d: dense route gave %d levels, err %v; merge gave %d, err %v",
						c.name, workers, n, len(got), gotErr, len(want), wantErr)
				}
				for l := range want {
					if !sameGrid(got[l], want[l]) {
						t.Fatalf("%s workers=%d levels=%d: level %d differs between the kernels", c.name, workers, n, l+1)
					}
				}
			}
		}
	}
	for _, workers := range []int{1, 3} {
		for _, c := range sweeps {
			for j := range c.in.Dim() {
				var want, got grid.FlatGrid
				var wantErr, gotErr error
				grid.TransformKernels(true, func() {
					wantErr = grid.TransformDimFlatCtx(context.Background(), c.in, j, c.basis, workers, &want)
				})
				d, m := grid.TransformKernels(false, func() {
					gotErr = grid.TransformDimFlatCtx(context.Background(), c.in, j, c.basis, workers, &got)
				})
				dense, merge = dense+d, merge+m
				if gotErr != nil || wantErr != nil || !sameGrid(&got, &want) {
					t.Fatalf("%s workers=%d: sweep along dimension %d differs between the kernels (errors %v, %v)",
						c.name, workers, j, gotErr, wantErr)
				}
			}
		}
	}
	if dense == 0 || merge == 0 {
		t.Fatalf("the suite swept %d windows densely and merged %d; both kernels must run", dense, merge)
	}
}
