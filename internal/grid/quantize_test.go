package grid_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
)

// TestQuantizeDatasetMatchesQuantizeFlat: identical grid (size, canonical
// cell order, densities) for every worker count, plus a valid cell-id memo:
// ids[i] must point at exactly the cell CellCoordsU16 puts point i in. The
// oracle's Quantize shares neither kernel, so it is the reference for
// both; the edge cases pin the summed/radix choice on each side of its
// boundary and check how many shards took each kernel.
func TestQuantizeDatasetMatchesQuantizeFlat(t *testing.T) {
	points, ds := grid.RandomDataset(6000, 2, 3)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 64, 1024} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkQuantizeDataset(t, q, points, ds, workers)
		})
	}

	// run is one worker count and the number of shards it counts into the
	// summed table of a dense call (summed) or, when the shards' tables
	// would outnumber the rows, radix-sorts (radix).
	type run struct{ workers, summed, radix int }
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
		// Four workers carve shards of 1025, 1025, 1025 and 1022 rows. The
		// last is smaller than the 1024 cells, but the four tables (4096
		// entries) fit within the 4097 rows, so the call is summed.
		{"mixed-shards", 4097, 2, 32, nil, []run{{2, 2, 0}, {4, 4, 0}}},
		{"max-edge", 3000, 2, 16, maxEdge, []run{{1, 1, 0}, {5, 5, 0}, {16, 0, 16}}},
		{"constant-dim", 3000, 3, 8, constantDim, []run{{1, 1, 0}, {7, 0, 7}}},
		{"d=1", 2500, 1, 64, nil, []run{{1, 1, 0}, {3, 3, 0}, {64, 0, 63}}},
		{"d=3", 5000, 3, 16, nil, []run{{1, 1, 0}, {2, 0, 2}}},
		// 1000 workers carve 683 ranges of 3 rows, whose 683 tables of 2
		// cells fit within the rows: a dense call with trailing empty
		// tables.
		{"fewer-ranges", 2049, 1, 2, nil, []run{{1000, 683, 0}}},
	}
	for ci, tc := range cases {
		points, _ := grid.RandomDataset(tc.n, tc.d, int64(10+ci))
		if tc.edit != nil {
			tc.edit(points)
		}
		ds := pointset.MustFromSlices(points)
		q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, tc.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.runs {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, r.workers), func(t *testing.T) {
				if summed, radix := grid.ShardKernels(q, tc.n, r.workers); summed != r.summed || radix != r.radix {
					t.Fatalf("shards: %d summed + %d radix, want %d + %d", summed, radix, r.summed, r.radix)
				}
				checkQuantizeDataset(t, q, points, ds, r.workers)
			})
		}
	}
}

// checkQuantizeDataset fails the test unless QuantizeDatasetCtx reproduces
// the oracle's Quantize grid in canonical order and memoizes every point's
// own cell.
func checkQuantizeDataset(t *testing.T, q *grid.Quantizer, points [][]float64, ds *pointset.Dataset, workers int) {
	t.Helper()
	got, ids := grid.QuantizeDataset(t, q, ds, workers)
	wantGrid, _ := oracle.Quantize(q, points)
	want := oracle.FlatFromGrid(wantGrid)
	if got.Len() != want.Len() {
		t.Fatalf("cells: got %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if grid.CmpCoords(got.CellCoords(i), want.CellCoords(i)) != 0 || got.Vals[i] != want.Vals[i] {
			t.Fatalf("cell %d: got %v/%v, want %v/%v",
				i, got.CellCoords(i), got.Vals[i], want.CellCoords(i), want.Vals[i])
		}
	}
	coords := make([]uint16, q.Dim())
	for i, p := range points {
		q.CellCoordsU16(p, coords)
		id := int(ids[i])
		if id < 0 || id >= got.Len() || grid.CmpCoords(got.CellCoords(id), coords) != 0 {
			t.Fatalf("point %d: memoized cell %d does not match coords %v", i, id, coords)
		}
	}
}

// TestQuantizeMoreWorkersThanRanges: ParallelRanges can produce fewer
// ranges than workers (ceil-chunking), leaving nil shard slots; the merge
// must skip them instead of panicking, and the memo must stay valid
// (regression test for a nil-dereference in the mapped shard merge).
func TestQuantizeMoreWorkersThanRanges(t *testing.T) {
	points, ds := grid.RandomDataset(grid.ParallelCellCutoff+1, 2, 9)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{64, 1024} {
		checkQuantizeDataset(t, q, points, ds, workers)
	}
}
