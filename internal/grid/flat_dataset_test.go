package grid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"adawave/internal/pointset"
)

func randomDataset(n, d int, seed int64) ([][]float64, *pointset.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		points[i] = p
	}
	return points, pointset.MustFromSlices(points)
}

// quantizeDataset is QuantizeDatasetCtx without a deadline, failing t on
// error.
func quantizeDataset(t testing.TB, q *Quantizer, ds *pointset.Dataset, workers int) (*FlatGrid, []int32) {
	t.Helper()
	f, ids, err := q.QuantizeDatasetCtx(context.Background(), ds, workers)
	if err != nil {
		t.Fatal(err)
	}
	return f, ids
}

// TestNewQuantizerDatasetMatchesSlices: the strided bounding-box scan must
// reproduce the slice-based quantizer exactly at every worker count.
func TestNewQuantizerDatasetMatchesSlices(t *testing.T) {
	points, ds := randomDataset(5000, 3, 1)
	want, err := NewQuantizer(points, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := NewQuantizerDatasetCtx(context.Background(), ds, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if got.Mins[j] != want.Mins[j] || got.Maxs[j] != want.Maxs[j] {
				t.Fatalf("workers=%d dim %d: bbox (%v,%v) want (%v,%v)",
					workers, j, got.Mins[j], got.Maxs[j], want.Mins[j], want.Maxs[j])
			}
		}
	}
}

// TestNewQuantizerDatasetErrors mirrors the slice constructor's validation.
func TestNewQuantizerDatasetErrors(t *testing.T) {
	_, ds := randomDataset(10, 2, 2)
	if _, err := NewQuantizerDatasetCtx(context.Background(), nil, 8, 1); err == nil {
		t.Fatal("nil dataset must error")
	}
	if _, err := NewQuantizerDatasetCtx(context.Background(), &pointset.Dataset{}, 8, 1); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, err := NewQuantizerDatasetCtx(context.Background(), ds, 1, 1); err == nil {
		t.Fatal("scale 1 must error")
	}
	bad := ds.Clone()
	bad.Data[7] = math.NaN()
	for _, workers := range []int{1, 4} {
		if _, err := NewQuantizerDatasetCtx(context.Background(), bad, 8, workers); err == nil {
			t.Fatalf("workers=%d: NaN coordinate must error", workers)
		}
	}
	// The block scan must name the lowest offending point with the slice
	// constructor's message wherever the flagged blocks fall: rows in the
	// first and second ctxCheckStride block, several per dataset, NaN and
	// both infinities.
	points, big := randomDataset(ctxCheckStride+5000, 2, 7)
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for ci, rows := range [][]int{{1}, {ctxCheckStride + 9, ctxCheckStride + 1}, {ctxCheckStride + 3, 4000}} {
		bad := big.Clone()
		pts := make([][]float64, len(points))
		for i := range pts {
			pts[i] = bad.Row(i)
		}
		for k, i := range rows {
			bad.Data[i*2+k%2] = nonFinite[(ci+k)%3]
		}
		_, want := NewQuantizer(pts, 8)
		if want == nil {
			t.Fatalf("non-finite rows %v: slice constructor must error", rows)
		}
		for _, workers := range []int{1, 2, 3} {
			if _, err := NewQuantizerDatasetCtx(context.Background(), bad, 8, workers); err == nil || err.Error() != want.Error() {
				t.Fatalf("non-finite rows %v, workers=%d: got %v, want %v", rows, workers, err, want)
			}
		}
	}
}

// TestQuantizeDatasetMatchesQuantizeFlat: identical grid (size, canonical
// cell order, densities) for every worker count, plus a valid cell-id memo:
// ids[i] must point at exactly the cell CellCoordsU16 puts point i in. The
// map-based Quantize shares neither shard kernel, so it is the reference
// for both; the edge cases pin the dense/radix choice on each side of its
// boundary and check how many shards took each kernel.
func TestQuantizeDatasetMatchesQuantizeFlat(t *testing.T) {
	points, ds := randomDataset(6000, 2, 3)
	q, err := NewQuantizer(points, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkQuantizeDataset(t, q, points, ds, workers)
		})
	}

	// run is one worker count and the number of shards it puts through
	// each kernel.
	type run struct{ workers, dense, radix int }
	maxEdge := func(points [][]float64) {
		// Every fifth row sits on the bounding box's upper corner, which
		// clamps to cell scale-1 in every dimension.
		hi := append([]float64(nil), points[0]...)
		for _, p := range points {
			for j, v := range p {
				hi[j] = math.Max(hi[j], v)
			}
		}
		for i := 0; i < len(points); i += 5 {
			copy(points[i], hi)
		}
	}
	constantDim := func(points [][]float64) {
		for _, p := range points {
			p[1] = 3.5
		}
	}
	cases := []struct {
		name        string
		n, d, scale int
		edit        func([][]float64)
		runs        []run
	}{
		{"cells=rows", 1024, 2, 32, nil, []run{{1, 1, 0}}},
		{"cells=rows+1", 1023, 2, 32, nil, []run{{1, 0, 1}}},
		{"cells=shard", 4096, 2, 32, nil, []run{{4, 4, 0}}},
		{"cells=shard+1", 4092, 2, 32, nil, []run{{4, 0, 4}}},
		{"mixed-shards", 4097, 2, 32, nil, []run{{2, 2, 0}, {4, 3, 1}}},
		{"max-edge", 3000, 2, 16, maxEdge, []run{{1, 1, 0}, {5, 5, 0}, {16, 0, 16}}},
		{"constant-dim", 3000, 3, 8, constantDim, []run{{1, 1, 0}, {7, 0, 7}}},
		{"d=1", 2500, 1, 64, nil, []run{{1, 1, 0}, {3, 3, 0}, {64, 0, 63}}},
		{"d=3", 5000, 3, 16, nil, []run{{1, 1, 0}, {2, 0, 2}}},
	}
	for ci, tc := range cases {
		points, _ := randomDataset(tc.n, tc.d, int64(10+ci))
		if tc.edit != nil {
			tc.edit(points)
		}
		ds := pointset.MustFromSlices(points)
		q, err := NewQuantizer(points, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.runs {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, r.workers), func(t *testing.T) {
				if dense, radix := shardKernels(q, tc.n, r.workers); dense != r.dense || radix != r.radix {
					t.Fatalf("shards: %d dense + %d radix, want %d + %d", dense, radix, r.dense, r.radix)
				}
				checkQuantizeDataset(t, q, points, ds, r.workers)
			})
		}
	}
}

// shardKernels counts the shards QuantizeDatasetCtx puts through the dense
// and the radix kernel for n rows at the given worker count.
func shardKernels(q *Quantizer, n, workers int) (dense, radix int) {
	if workers <= 1 || n < parallelCellCutoff {
		workers = 1
	}
	var mu sync.Mutex
	ParallelRanges(n, workers, func(_, lo, hi int) {
		_, ok := denseCellSpace(q.Scale, q.Dim(), hi-lo)
		mu.Lock()
		defer mu.Unlock()
		if ok {
			dense++
		} else {
			radix++
		}
	})
	return dense, radix
}

// checkQuantizeDataset fails the test unless QuantizeDatasetCtx reproduces
// the map-based Quantize grid in canonical order and memoizes every point's
// own cell.
func checkQuantizeDataset(t *testing.T, q *Quantizer, points [][]float64, ds *pointset.Dataset, workers int) {
	t.Helper()
	got, ids := quantizeDataset(t, q, ds, workers)
	want := FlatFromGrid(q.Quantize(points))
	if got.Len() != want.Len() {
		t.Fatalf("cells: got %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if cmpCoords(got.CellCoords(i), want.CellCoords(i)) != 0 || got.Vals[i] != want.Vals[i] {
			t.Fatalf("cell %d: got %v/%v, want %v/%v",
				i, got.CellCoords(i), got.Vals[i], want.CellCoords(i), want.Vals[i])
		}
	}
	coords := make([]uint16, q.Dim())
	for i, p := range points {
		q.CellCoordsU16(p, coords)
		id := int(ids[i])
		if id < 0 || id >= got.Len() || cmpCoords(got.CellCoords(id), coords) != 0 {
			t.Fatalf("point %d: memoized cell %d does not match coords %v", i, id, coords)
		}
	}
}

// TestQuantizeMoreWorkersThanRanges: ParallelRanges can produce fewer
// ranges than workers (ceil-chunking), leaving nil shard slots; the merge
// must skip them instead of panicking, and the memo must stay valid
// (regression test for a nil-dereference in the mapped shard merge).
func TestQuantizeMoreWorkersThanRanges(t *testing.T) {
	points, ds := randomDataset(parallelCellCutoff+1, 2, 9)
	q, err := NewQuantizer(points, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{64, 1024} {
		checkQuantizeDataset(t, q, points, ds, workers)
	}
}

// TestAncestorLabels checks the per-level table against the definition: the
// label of the kept cell whose coordinates are the base cell's shifted by
// the level, −1 when absent or demoted.
func TestAncestorLabels(t *testing.T) {
	points, ds := randomDataset(4000, 2, 4)
	q, err := NewQuantizer(points, 64)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := quantizeDataset(t, q, ds, 1)
	for _, levels := range []int{0, 1, 2} {
		// A synthetic kept grid: every other ancestor of the base cells.
		shift := uint(levels)
		anc := NewFlat([]int{64 >> shift, 64 >> shift}, 0)
		seen := map[[2]uint16]bool{}
		coords := make([]uint16, 2)
		for c := 0; c < base.Len(); c++ {
			bc := base.CellCoords(c)
			coords[0], coords[1] = bc[0]>>shift, bc[1]>>shift
			k := [2]uint16{coords[0], coords[1]}
			if !seen[k] {
				seen[k] = true
				anc.Append(coords, 1)
			}
		}
		anc.SortCanonical()
		kept := NewFlat(anc.Size, 0)
		keptLabels := make([]int32, 0)
		for i := 0; i < anc.Len(); i += 2 {
			kept.Append(anc.CellCoords(i), anc.Vals[i])
			label := int32(len(keptLabels) % 3)
			if label == 2 {
				label = -1 // demoted component
			}
			keptLabels = append(keptLabels, label)
		}
		for _, workers := range []int{1, 4} {
			table, err := base.AncestorLabelsCtx(context.Background(), nil, kept, levels, keptLabels, workers)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < base.Len(); c++ {
				bc := base.CellCoords(c)
				coords[0], coords[1] = bc[0]>>shift, bc[1]>>shift
				want := int32(-1)
				if j := kept.Find(coords); j >= 0 && keptLabels[j] >= 0 {
					want = keptLabels[j]
				}
				if table[c] != want {
					t.Fatalf("levels=%d workers=%d cell %d: got %d, want %d",
						levels, workers, c, table[c], want)
				}
			}
		}
	}
}

// TestSortedDensitiesInto: the pooled form must equal SortedDensities and
// reuse the buffer's capacity.
func TestSortedDensitiesInto(t *testing.T) {
	points, ds := randomDataset(3000, 2, 5)
	q, err := NewQuantizer(points, 32)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := quantizeDataset(t, q, ds, 1)
	want := f.SortedDensities()
	buf := make([]float64, 0, f.Len())
	got := f.SortedDensitiesInto(buf)
	if len(got) != len(want) {
		t.Fatalf("length: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("curve[%d]: got %v, want %v", i, got[i], want[i])
		}
	}
	if f.Len() > 0 && &got[0] != &buf[:1][0] {
		t.Fatal("SortedDensitiesInto must reuse the buffer's capacity")
	}
}

// TestCloneInto: deep copy that reuses destination capacity.
func TestCloneInto(t *testing.T) {
	points, ds := randomDataset(1000, 2, 6)
	q, err := NewQuantizer(points, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := quantizeDataset(t, q, ds, 1)
	dst := &FlatGrid{}
	got := f.CloneInto(dst)
	if got != dst {
		t.Fatal("CloneInto must return its destination")
	}
	if got.Len() != f.Len() {
		t.Fatalf("cells: got %d, want %d", got.Len(), f.Len())
	}
	got.Vals[0] = -42
	if f.Vals[0] == -42 {
		t.Fatal("CloneInto must not share backing storage")
	}
	// Cloning a smaller grid into the same destination reuses capacity.
	small := NewFlat(f.Size, 1)
	small.Append(f.CellCoords(0), 7)
	prev := &got.Vals[:1][0]
	got = small.CloneInto(dst)
	if got.Len() != 1 || &got.Vals[0] != prev {
		t.Fatal("CloneInto must reuse the destination's backing array")
	}
}
