package grid

import "context"

// quantizeShard quantizes one contiguous shard of row-major rows (len(ids)
// points of Dim coordinates each) into the shard's canonical run — its
// occupied cells in canonical order with integer point counts as masses —
// and stamps ids[i] with the run-local index of row i's cell. It is the one
// per-shard kernel of the in-RAM (QuantizeDatasetCtx) and out-of-core
// (quantizeDatasetExternalInto) paths. It returns nil when ctx is cancelled
// mid-shard; callers check CtxErr before using any shard.
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

// quantizeDense is the counting kernel of paper Alg. 2: every row's cell is
// linearized with dimension 0 most significant — so table order is
// canonical cell order — and counted into an int32 table of all cells. One
// pass over the table emits the occupied cells in order and overwrites
// each count with the cell's rank in the run; a last pass maps every row's
// linear id to that rank. The table holds cells ≤ len(ids) entries, 4 bytes
// per row at most, less than the coordinate, payload and scratch buffers
// the radix kernel needs for the same rows.
func (q *Quantizer) quantizeDense(ctx context.Context, rows []float64, ids []int32, cells int, size []int) *FlatGrid {
	d, scale := q.Dim(), q.Scale
	mins, inv := q.Mins, q.inv
	n := len(ids)
	tbl := make([]int32, cells)
	for lo := 0; lo < n; lo += ctxCheckStride {
		if ctx.Err() != nil {
			return nil
		}
		hi := min(lo+ctxCheckStride, n)
		blk := rows[lo*d : hi*d]
		ib := ids[lo:hi]
		for i := range ib {
			lin := 0
			for j, v := range blk[i*d : (i+1)*d] {
				// The cell of coordinate j exactly as CellCoordsU16 computes it.
				c := int((v - mins[j]) * inv[j])
				if c < 0 {
					c = 0
				}
				if c >= scale {
					c = scale - 1
				}
				lin = lin*scale + c
			}
			ib[i] = int32(lin)
			tbl[lin]++
		}
	}
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
	for i, lin := range ids {
		ids[i] = tbl[lin]
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
