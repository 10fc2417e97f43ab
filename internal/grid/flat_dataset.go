package grid

import (
	"context"
	"fmt"

	"adawave/internal/pointset"
)

// NewQuantizerDatasetCtx computes the quantizer of a flat row-major
// dataset: the bounding-box scan reads strided rows out of one backing slice
// instead of chasing a pointer per point. The scan is sharded across
// workers with exact min/max merging, and non-finite coordinates are
// reported for the lowest offending point index, so the result (and any
// error) is identical for every worker count. Every shard polls ctx at its
// boundary (and every ctxCheckStride points within), and a cancelled scan
// returns the taxonomy error of CtxErr without building a quantizer.
//
// Each shard folds its rows in blocks of ctxCheckStride rows straight off
// the backing slice with the scanBox kernel, whose only finiteness test is
// a sum of v−v over the block (zero unless some coordinate is NaN or ±Inf).
// A flagged block is rescanned row by row with bboxShard.scan, so the error
// names the lowest offending point exactly as a row-by-row scan would.
func NewQuantizerDatasetCtx(ctx context.Context, ds *pointset.Dataset, scale, workers int) (*Quantizer, error) {
	if ds == nil || ds.N == 0 {
		return nil, ErrNoPoints
	}
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	d := ds.D
	if d == 0 {
		return nil, fmt.Errorf("grid: zero-dimensional points")
	}
	n := ds.N
	if workers <= 1 || n < parallelCellCutoff {
		workers = 1
	}
	states := make([]bboxShard, workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		st := &states[w]
		st.init(ds.Row(lo))
		for blo := lo; blo < hi; blo += ctxCheckStride {
			if blo > lo && ctx.Err() != nil {
				return
			}
			bhi := min(blo+ctxCheckStride, hi)
			if scanBox(ds.Data[blo*d:bhi*d], st.mins, st.maxs) {
				continue
			}
			for i := blo; i < bhi; i++ {
				if !st.scan(i, ds.Data[i*d:(i+1)*d]) {
					return
				}
			}
		}
	})
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	return finishQuantizer(states, scale, d)
}

// scanBox is the box-scan kernel: it folds the row-major rows of blk
// (len(mins) values each) into the running bounds mins and maxs, in row
// order, and reports whether every value is finite. The bounds move only on
// a strict < or >, exactly as bboxShard.scan moves them, so a −0 after a +0
// (or the reverse) leaves the bound as a row-by-row scan leaves it. The
// finiteness flag sums v−v, which is +0 for every finite v and NaN
// otherwise; a sum is order-free, so the loop takes values in pairs and
// feeds each to its own accumulator. It is a leaf so the compiler keeps the
// loop state in registers.
func scanBox(blk, mins, maxs []float64) bool {
	d := len(mins)
	maxs = maxs[:d]
	var f0, f1 float64
	j, k := 0, 0
	for ; k+1 < len(blk); k += 2 {
		v, w := blk[k], blk[k+1]
		f0 += v - v
		f1 += w - w
		if v < mins[j] {
			mins[j] = v
		}
		if v > maxs[j] {
			maxs[j] = v
		}
		if j++; j == d {
			j = 0
		}
		if w < mins[j] {
			mins[j] = w
		}
		if w > maxs[j] {
			maxs[j] = w
		}
		if j++; j == d {
			j = 0
		}
	}
	if k < len(blk) {
		v := blk[k]
		f0 += v - v
		if v < mins[j] {
			mins[j] = v
		}
		if v > maxs[j] {
			maxs[j] = v
		}
	}
	return f0+f1 == 0
}

// QuantizeDatasetCtx builds the sparse density grid of a flat dataset in
// canonical order — identical for every worker count — and additionally
// memoizes every point's base-cell index: ids[i] is the canonical-order
// index of point i's cell in the returned grid. Each worker quantizes one
// contiguous shard, and each point's cell coordinates are computed exactly
// once.
//
// When the shards' count tables over the whole cell space Scaleᵈ hold no
// more entries in all than there are rows (denseCall), the call is dense:
// every worker counts its shard into a table of its own over all cells
// (countRows), the tables are summed — integer counts, so exactly — and
// rankCells emits the grid from the sum and turns it into ranks, which one
// parallel pass writes over the points' linear cell ids. A dense call runs
// no shard merge. Otherwise every shard runs quantizeShard, which
// radix-sorts its cells with the point index as payload and stamps each
// point with its shard-local cell number, and mergeCells, the package's one
// k-way cell merge, sums the shards in shard order and renumbers those ids
// to global indices.
//
// Each shard polls ctx at its boundary and every ctxCheckStride points
// within, in the count and the rank pass alike, and so do the shard merge
// every ctxCheckStride merged cells and the id renumbering after it every
// ctxCheckStride ids; a cancelled run publishes no grid and no memo.
func (q *Quantizer) QuantizeDatasetCtx(ctx context.Context, ds *pointset.Dataset, workers int) (*FlatGrid, []int32, error) {
	d := q.Dim()
	size := q.gridSize()
	n := ds.N
	if n == 0 {
		return &FlatGrid{Size: size}, nil, nil
	}
	workers = quantizeWorkers(n, workers)
	ids := make([]int32, n)
	if cells, ok := denseCall(q.Scale, d, n, workers, n); ok {
		return q.quantizeDenseDataset(ctx, ds, ids, cells, size, workers)
	}
	shards := make([]*FlatGrid, workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		shards[w] = q.quantizeShard(ctx, ds.Data[lo*d:hi*d], ids[lo:hi], size)
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	if workers == 1 {
		return shards[0], ids, nil
	}
	// ParallelRanges can carve fewer ranges than workers; the missing
	// shards are the trailing ones, so shard w stays merge input w.
	srcs := make([]*cellCursor, 0, workers)
	total := 0
	for _, sh := range shards {
		if sh != nil {
			srcs = append(srcs, flatCursor(sh))
			total += sh.Len()
		}
	}
	f := NewFlat(size, total)
	remap, err := mergeCells(ctx, srcs, f)
	if err != nil {
		return nil, nil, err
	}
	// Renumber the shard-local cell ids to canonical-grid indices.
	// ParallelRanges carves the same deterministic shard boundaries as the
	// quantization pass above, so worker w sees exactly its own ids.
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		renumberIDs(ctx, ids[lo:hi], remap[w])
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	return f, ids, nil
}

// quantizeDenseDataset is the dense route of QuantizeDatasetCtx and of
// QuantizeDatasetExternalPackedCtx, the counting kernel of paper Alg. 2:
// one count table per shard over the whole cell space (cells entries),
// their sum ranked once by rankCells, and one parallel pass that maps every
// point's linear cell id to its rank.
func (q *Quantizer) quantizeDenseDataset(ctx context.Context, ds *pointset.Dataset, ids []int32, cells int, size []int, workers int) (*FlatGrid, []int32, error) {
	d := q.Dim()
	tbls := make([][]int32, workers)
	ParallelRangesCtx(ctx, ds.N, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		tbl := make([]int32, cells)
		if q.countRows(ctx, ds.Data[lo*d:hi*d], ids[lo:hi], tbl) {
			tbls[w] = tbl
		}
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	sum := tbls[0]
	for _, tbl := range tbls[1:] {
		for c, k := range tbl {
			sum[c] += k
		}
	}
	f := rankCells(sum, d, q.Scale, size)
	ParallelRangesCtx(ctx, ds.N, workers, func(_, lo, hi int) {
		renumberIDs(ctx, ids[lo:hi], sum)
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	return f, ids, nil
}

// renumberIDs maps every id through table in place, polling ctx every
// ctxCheckStride ids and stopping once it is done.
func renumberIDs(ctx context.Context, ids, table []int32) {
	for lo := 0; lo < len(ids); lo += ctxCheckStride {
		if ctx.Err() != nil {
			return
		}
		blk := ids[lo:min(lo+ctxCheckStride, len(ids))]
		for i, id := range blk {
			blk[i] = table[id]
		}
	}
}

// dedupeRunsIdx collapses equal consecutive coordinate tuples of a sorted
// cell list in place, returning the compacted coords and the run lengths as
// densities. It also records, for every point, the shard-local index of the
// cell its run collapsed into: ids[idx[e]] is set to the compacted cell
// number of element e.
func dedupeRunsIdx(coords []uint16, idx []int32, d int, ids []int32) ([]uint16, []float64) {
	n := len(coords) / d
	if n == 0 {
		return coords[:0], nil
	}
	vals := make([]float64, 0, n)
	w := 0
	for i := 0; i < n; {
		r := i + 1
		for r < n && cmpCoords(coords[i*d:(i+1)*d], coords[r*d:(r+1)*d]) == 0 {
			r++
		}
		for e := i; e < r; e++ {
			ids[idx[e]] = int32(w)
		}
		copy(coords[w*d:(w+1)*d], coords[i*d:(i+1)*d])
		vals = append(vals, float64(r-i))
		w++
		i = r
	}
	return coords[:w*d], vals
}

// AncestorLabelsCtx builds the per-level assignment table of base grid f:
// out[c] is the label of base cell c's ancestor after `levels` dyadic
// downsamplings — the kept cell whose coordinates equal the base cell's
// right-shifted by levels — or −1 when the ancestor was filtered out or
// keptLabels demoted it. One pass over the base cells (O(cells·(d + log
// cells)) via binary search in kept) replaces a per-point coordinate
// recomputation and search. out reuses dst's capacity. Each assignment
// shard polls ctx at its boundary (and every ctxCheckStride cells within);
// the returned slice is always valid for pooling — on cancellation its
// contents are unspecified and the error is non-nil.
func (f *FlatGrid) AncestorLabelsCtx(ctx context.Context, dst []int32, kept *FlatGrid, levels int, keptLabels []int32, workers int) ([]int32, error) {
	d := f.Dim()
	m := f.Len()
	if cap(dst) < m {
		dst = make([]int32, m)
	}
	out := dst[:m]
	shift := uint(levels)
	ParallelRangesCtx(ctx, m, workers, func(_, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		coords := make([]uint16, d)
		for c := lo; c < hi; c++ {
			if (c-lo)%ctxCheckStride == ctxCheckStride-1 && ctx.Err() != nil {
				return
			}
			bc := f.Coords[c*d : (c+1)*d]
			for p := 0; p < d; p++ {
				coords[p] = bc[p] >> shift
			}
			if j := kept.Find(coords); j >= 0 && keptLabels[j] >= 0 {
				out[c] = keptLabels[j]
			} else {
				out[c] = -1
			}
		}
	})
	return out, CtxErr(ctx)
}
