package grid

import "context"

// quantizeShard is the sorting kernel of a quantize call that is not dense
// (denseCall): it quantizes one contiguous shard of row-major rows (len(ids)
// points of Dim coordinates each, the first of them point lo) into the
// shard's canonical run — its occupied cells in canonical order with
// integer point counts as masses. Cell coordinates are computed block by
// block by cellCoords, and chk, when it is not nil, checks every block in
// which a value took cellOf's slow path. They are radix-sorted with the
// row index riding along as payload, and the dedupe
// pass collapses equal cells and stamps ids[i] with the run-local index of
// row i's cell. The in-RAM call (QuantizeDatasetCtx) and the out-of-core
// one (QuantizeDatasetExternalPackedCtx) both merge its runs. It returns
// nil when ctx is cancelled mid-shard; callers check CtxErr before using
// any shard.
func (q *Quantizer) quantizeShard(ctx context.Context, rows []float64, lo int, ids []int32, size []int, chk *boxCheck) *FlatGrid {
	d := q.Dim()
	n := len(ids)
	s := getFlatScratch()
	defer putFlatScratch(s)
	coords := make([]uint16, n*d)
	for blo := 0; blo < n; blo += ctxCheckStride {
		if blo > 0 && ctx.Err() != nil {
			return nil
		}
		bhi := min(blo+ctxCheckStride, n)
		if q.cellCoords(rows[blo*d:bhi*d], coords[blo*d:bhi*d]) > 0 {
			chk.block(q, rows[blo*d:bhi*d], lo+blo)
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	passes := make([]int, 0, d)
	for p := d - 1; p >= 0; p-- {
		passes = append(passes, p)
	}
	sorted, _, sortedIdx := radixSortCells(coords, nil, idx, d, size, passes, s)
	cells, counts := dedupeRunsIdx(sorted, sortedIdx, d, ids)
	return &FlatGrid{Size: size, Coords: cells, Vals: counts}
}

// cellCoords is the radix route's cell kernel: it writes the cell
// coordinates of every row of rows (Dim coordinates each) into coords,
// each one computed by cellOf, and returns how many values took cellOf's
// slow path. It is a leaf so the compiler keeps the row loop's state in
// registers.
func (q *Quantizer) cellCoords(rows []float64, coords []uint16) int {
	mins, scale, limit := q.Mins, q.Scale, q.limit
	d := len(mins)
	inv := q.inv[:d]
	slow := 0
	for i := 0; i < len(rows)/d; i++ {
		out := coords[i*d : i*d+d]
		for j, v := range rows[i*d : i*d+d] {
			c, ok := cellOf(v, mins[j], inv[j], limit, scale)
			if !ok {
				slow++
			}
			out[j] = uint16(c)
		}
	}
	return slow
}

// quantizeWorkers returns the worker count a quantize call over n rows
// runs on: workers, or one below parallelCellCutoff rows.
func quantizeWorkers(n, workers int) int {
	if workers <= 1 || n < parallelCellCutoff {
		return 1
	}
	return workers
}

// denseCall reports whether a quantize call over n rows on workers is
// dense, and returns the number of cells Scaleᵈ of the grid if so. A dense
// call counts each range ParallelRanges carves into a table of its own
// over all cells, so it is taken when those tables hold no more entries in
// all than rows: at most 4 bytes per row, less than the coordinate,
// payload and scratch buffers quantizeShard needs for the same rows. The
// in-RAM call passes its n rows; the out-of-core call passes one chunk's.
// The product Scaleᵈ stops growing past the per-table limit, so it cannot
// overflow.
func denseCall(scale, d, n, workers, rows int) (int, bool) {
	limit := rows / carvedRanges(n, workers)
	cells := 1
	for j := 0; j < d; j++ {
		cells *= scale
		if cells > limit {
			return 0, false
		}
	}
	return cells, true
}

// countRows runs countCells over rows — the first of them point lo — in
// blocks of ctxCheckStride rows, polling ctx before each block, and has
// chk, when it is not nil, check every block in which a value took
// cellOf's slow path. It reports false when ctx was cancelled; ids and tbl
// then hold a partial count.
func (q *Quantizer) countRows(ctx context.Context, rows []float64, lo int, ids, tbl []int32, chk *boxCheck) bool {
	d := q.Dim()
	for blo := 0; blo < len(ids); blo += ctxCheckStride {
		if ctx.Err() != nil {
			return false
		}
		bhi := min(blo+ctxCheckStride, len(ids))
		if q.countCells(rows[blo*d:bhi*d], ids[blo:bhi], tbl) > 0 {
			chk.block(q, rows[blo*d:bhi*d], lo+blo)
		}
	}
	return true
}

// countCells is the count kernel: it linearizes the cell of every row of
// rows (Dim coordinates each) with dimension 0 most significant — so table
// order is canonical cell order —, stores that linear id in ids and counts
// it in tbl. Each coordinate's cell is cellOf's, exactly the one
// CellCoordsU16 computes, and it returns how many values took cellOf's
// slow path. It is a leaf with few arguments so the compiler keeps the
// row loop's state in registers.
func (q *Quantizer) countCells(rows []float64, ids, tbl []int32) int {
	mins, scale, limit := q.Mins, q.Scale, q.limit
	d := len(mins)
	inv := q.inv[:d]
	slow := 0
	for i := range ids {
		lin := 0
		for j, v := range rows[i*d : i*d+d] {
			c, ok := cellOf(v, mins[j], inv[j], limit, scale)
			if !ok {
				slow++
			}
			lin = lin*scale + c
		}
		ids[i] = int32(lin)
		tbl[lin]++
	}
	return slow
}

// rankCells emits the occupied cells of the count table tbl — indexed by
// linear cell id, dimension 0 most significant — as a canonical grid with
// the counts as masses, and overwrites each occupied entry with its cell's
// rank in that grid. Entries of empty cells are left at zero.
func rankCells(tbl []int32, d, scale int, size []int) *FlatGrid {
	occupied := 0
	for _, c := range tbl {
		if c != 0 {
			occupied++
		}
	}
	f := &FlatGrid{Size: size, Coords: make([]uint16, 0, occupied*d), Vals: make([]float64, 0, occupied)}
	cell := make([]uint16, d)
	var rank int32
	for lin, c := range tbl {
		if c != 0 {
			f.Coords = append(f.Coords, cell...)
			f.Vals = append(f.Vals, float64(c))
			tbl[lin] = rank
			rank++
		}
		// Step the cell odometer to lin+1, last dimension fastest.
		for j := d - 1; j >= 0; j-- {
			if cell[j]++; int(cell[j]) < scale {
				break
			}
			cell[j] = 0
		}
	}
	return f
}
