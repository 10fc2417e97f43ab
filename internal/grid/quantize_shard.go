package grid

import "context"

// quantizeShard quantizes one contiguous shard of row-major rows (len(ids)
// points of Dim coordinates each) into the shard's canonical run — its
// occupied cells in canonical order with integer point counts as masses —
// and stamps ids[i] with the run-local index of row i's cell. It is the
// per-shard kernel of the out-of-core path (QuantizeDatasetExternalPackedCtx)
// and of an in-RAM call (QuantizeDatasetCtx) that is not dense throughout;
// both merge its runs. A dense in-RAM call does not use it: it ranks one
// summed table and runs no shard merge. It returns nil when ctx is
// cancelled mid-shard; callers check CtxErr before using any shard.
//
// Which of two kernels runs depends only on the input. When the whole cell
// space Scaleᵈ is no larger than the shard's row count, the shard is counted
// into a dense table (quantizeDense) and no row is moved; otherwise its
// cell coordinates are radix-sorted with the row index as payload and
// run-length-deduped (quantizeRadix). Both emit the
// same run and the same ids, so every grid, memo and label downstream is
// bit-identical whichever kernel a shard took.
func (q *Quantizer) quantizeShard(ctx context.Context, rows []float64, ids []int32, size []int) *FlatGrid {
	if cells, ok := denseCellSpace(q.Scale, q.Dim(), len(ids)); ok {
		return q.quantizeDense(ctx, rows, ids, cells, size)
	}
	return q.quantizeRadix(ctx, rows, ids, size)
}

// denseCellSpace returns the number of cells Scaleᵈ of the grid and whether
// it is at most n, the shard's row count. The product stops growing past n,
// so it cannot overflow.
func denseCellSpace(scale, d, n int) (int, bool) {
	cells := 1
	for j := 0; j < d; j++ {
		cells *= scale
		if cells > n {
			return 0, false
		}
	}
	return cells, true
}

// quantizeDense is the counting kernel of paper Alg. 2 for one shard:
// countRows stamps every row with its linear cell id and counts it into a
// table of all cells, rankCells emits the occupied cells and turns the
// counts into ranks, and a last pass maps every row's linear id to that
// rank. The table holds cells ≤ len(ids) entries, 4 bytes per row at most,
// less than the coordinate, payload and scratch buffers the radix kernel
// needs for the same rows. A dense in-RAM call does not come here: it
// ranks one summed table and runs no shard merge (QuantizeDatasetCtx).
func (q *Quantizer) quantizeDense(ctx context.Context, rows []float64, ids []int32, cells int, size []int) *FlatGrid {
	tbl := make([]int32, cells)
	if !q.countRows(ctx, rows, ids, tbl) {
		return nil
	}
	f := rankCells(tbl, q.Dim(), q.Scale, size)
	for i, lin := range ids {
		ids[i] = tbl[lin]
	}
	return f
}

// countRows runs countCells over rows in blocks of ctxCheckStride rows,
// polling ctx before each block. It reports false when ctx was cancelled;
// ids and tbl then hold a partial count.
func (q *Quantizer) countRows(ctx context.Context, rows []float64, ids, tbl []int32) bool {
	d := q.Dim()
	for lo := 0; lo < len(ids); lo += ctxCheckStride {
		if ctx.Err() != nil {
			return false
		}
		hi := min(lo+ctxCheckStride, len(ids))
		q.countCells(rows[lo*d:hi*d], ids[lo:hi], tbl)
	}
	return true
}

// countCells is the count kernel: it linearizes the cell of every row of
// rows (Dim coordinates each) with dimension 0 most significant — so table
// order is canonical cell order —, stores that linear id in ids and counts
// it in tbl. Each coordinate's cell is exactly the one CellCoordsU16
// computes, int((v−min)·inv) clamped to [0, Scale−1]. It is a leaf with few
// arguments so the compiler keeps the row loop's state in registers.
func (q *Quantizer) countCells(rows []float64, ids, tbl []int32) {
	mins, scale := q.Mins, q.Scale
	d := len(mins)
	inv := q.inv[:d]
	for i := range ids {
		lin := 0
		for j, v := range rows[i*d : i*d+d] {
			c := int((v - mins[j]) * inv[j])
			if c < 0 {
				c = 0
			}
			if c >= scale {
				c = scale - 1
			}
			lin = lin*scale + c
		}
		ids[i] = int32(lin)
		tbl[lin]++
	}
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

// quantizeRadix is the sorting kernel for shards smaller than the cell
// space: cell coordinates are radix-sorted with the row index riding along
// as payload, and the dedupe pass collapses equal cells and stamps each row
// with its cell's run-local index.
func (q *Quantizer) quantizeRadix(ctx context.Context, rows []float64, ids []int32, size []int) *FlatGrid {
	d := q.Dim()
	n := len(ids)
	s := getFlatScratch()
	defer putFlatScratch(s)
	coords := make([]uint16, n*d)
	idx := make([]int32, n)
	for i := 0; i < n; i++ {
		if i%ctxCheckStride == ctxCheckStride-1 && ctx.Err() != nil {
			return nil
		}
		q.CellCoordsU16(rows[i*d:(i+1)*d], coords[i*d:(i+1)*d])
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
