package grid

import (
	"context"
	"fmt"
	"math"

	"adawave/internal/pointset"
)

// NewQuantizerDatasetCtx computes the quantizer of a flat row-major
// dataset. A dataset that records its bounding box (pointset.Dataset.Bounds,
// a mapped file's trailer) gets a quantizer built from those bounds with
// the scan's arithmetic, without reading a row. It is marked recorded, and
// every quantize pass with it checks the bounds against the rows it reads
// (boxCheck), so a call that returns a grid clustered exactly the grid the
// scan's quantizer gives. A recorded box that is not finite and ordered —
// the all-NaN trailer of a file whose writer saw a non-finite coordinate,
// or a damaged one — is resolved by the scan: its error for a non-finite
// coordinate, an ErrCorruptDataset-tagged error otherwise.
//
// Any other dataset is scanned: the bounding-box scan reads strided rows
// out of one backing slice instead of chasing a pointer per point. The
// scan is sharded across workers with exact min/max merging, and
// non-finite coordinates are reported for the lowest offending point
// index, so the result (and any error) is identical for every worker
// count. Every shard polls ctx at its boundary (and every ctxCheckStride
// points within), and a cancelled scan returns the taxonomy error of
// CtxErr without building a quantizer.
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
	if ds.D == 0 {
		return nil, fmt.Errorf("grid: zero-dimensional points")
	}
	if mins, maxs, ok := ds.Bounds(); ok {
		for j := range mins {
			if !finiteBox(mins[j], maxs[j]) {
				return nil, boxMismatch(ctx, ds, mins, maxs, scale, workers)
			}
		}
		q := newQuantizer(mins, maxs, scale)
		q.recorded = true
		return q, nil
	}
	return scanQuantizer(ctx, ds, scale, workers)
}

// scanQuantizer is NewQuantizerDatasetCtx's bounding-box scan.
func scanQuantizer(ctx context.Context, ds *pointset.Dataset, scale, workers int) (*Quantizer, error) {
	d, n := ds.D, ds.N
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

// boxCheck is one shard's share of the check that a recorded quantizer is
// the quantizer a scan of the rows builds, bit for bit. A scan's minimum
// of a dimension is the first value in row order that equals the smallest
// value (a bound moves only on a strict <), and likewise its maximum. So
// the recorded bounds are the scan's exactly when every coordinate is
// finite and within them and, per dimension, the lowest row whose
// coordinate equals a bound holds the bound's bits. Every coordinate that
// is non-finite or at or beyond a bound takes cellOf's slow path, so the
// check reads only the blocks of rows in which the kernel counted one:
// for data strictly inside its box save the rows at its bounds, a few
// blocks in all.
type boxCheck struct {
	minAt, maxAt []int // per dimension, the lowest row at the bound; −1 while none
	bad          bool  // a coordinate is non-finite or outside the bounds
}

// boxChecks holds one boxCheck per shard of a quantize pass; it is nil for
// a quantizer that was not built from recorded bounds.
type boxChecks []boxCheck

// newBoxChecks returns the checks of a pass over shards shards, nil unless
// q is recorded.
func (q *Quantizer) newBoxChecks(shards int) boxChecks {
	if !q.recorded {
		return nil
	}
	checks := make(boxChecks, shards)
	for w := range checks {
		c := &checks[w]
		c.minAt, c.maxAt = make([]int, q.Dim()), make([]int, q.Dim())
		for j := range c.minAt {
			c.minAt[j], c.maxAt[j] = -1, -1
		}
	}
	return checks
}

// shard returns shard w's check, nil when the pass checks nothing.
func (cs boxChecks) shard(w int) *boxCheck {
	if cs == nil {
		return nil
	}
	return &cs[w]
}

// block folds one block of rows, the first of them point lo, into the
// check. A nil check does nothing.
func (c *boxCheck) block(q *Quantizer, rows []float64, lo int) {
	if c == nil {
		return
	}
	d := q.Dim()
	for i := 0; i < len(rows)/d; i++ {
		for j, v := range rows[i*d : i*d+d] {
			lb, hb := q.Mins[j], q.Maxs[j]
			if !(v >= lb && v <= hb) {
				c.bad = true
				continue
			}
			if v == lb && c.minAt[j] < 0 {
				c.minAt[j] = lo + i
			}
			if v == hb && c.maxAt[j] < 0 {
				c.maxAt[j] = lo + i
			}
		}
	}
}

// verify finishes the check of a pass of q over ds from its shards'
// checks: nil when they prove q's bounds are the scan's. Otherwise the
// scan decides the error (boxMismatch). Shards are merged by lowest row,
// so the verdict is the same for every shard layout.
func (cs boxChecks) verify(ctx context.Context, q *Quantizer, ds *pointset.Dataset, workers int) error {
	if cs == nil {
		return nil
	}
	d := q.Dim()
	ok := true
	for j := 0; j < d && ok; j++ {
		minAt, maxAt := -1, -1
		for w := range cs {
			c := &cs[w]
			ok = ok && !c.bad
			if at := c.minAt[j]; at >= 0 && (minAt < 0 || at < minAt) {
				minAt = at
			}
			if at := c.maxAt[j]; at >= 0 && (maxAt < 0 || at < maxAt) {
				maxAt = at
			}
		}
		ok = ok && minAt >= 0 && maxAt >= 0 &&
			math.Float64bits(ds.Data[minAt*d+j]) == math.Float64bits(q.Mins[j]) &&
			math.Float64bits(ds.Data[maxAt*d+j]) == math.Float64bits(q.Maxs[j])
	}
	if ok {
		return nil
	}
	return boxMismatch(ctx, ds, q.Mins, q.Maxs, q.Scale, workers)
}

// boxMismatch returns the error of a dataset whose recorded bounds mins
// and maxs are not the bounds of its rows. The rows are scanned: a
// non-finite coordinate fails with the scan's own error, which names the
// lowest offending point exactly as for a dataset without recorded bounds;
// otherwise the error is ErrCorruptDataset-tagged and names the first
// dimension whose recorded bounds differ from the scan's.
func boxMismatch(ctx context.Context, ds *pointset.Dataset, mins, maxs []float64, scale, workers int) error {
	sq, err := scanQuantizer(ctx, ds, scale, workers)
	if err != nil {
		return err
	}
	for j := range mins {
		if math.Float64bits(mins[j]) != math.Float64bits(sq.Mins[j]) || math.Float64bits(maxs[j]) != math.Float64bits(sq.Maxs[j]) {
			return fmt.Errorf("%w: recorded bounds [%v, %v] in dimension %d, the rows span [%v, %v]",
				pointset.ErrCorruptDataset, mins[j], maxs[j], j, sq.Mins[j], sq.Maxs[j])
		}
	}
	return fmt.Errorf("%w: recorded bounds disagree with the rows", pointset.ErrCorruptDataset)
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
// With a quantizer built from recorded bounds, the count pass or the radix
// shards check the bounds as they compute cells (boxCheck), and a call
// whose rows contradict them returns its error and no grid.
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
	checks := q.newBoxChecks(workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		shards[w] = q.quantizeShard(ctx, ds.Data[lo*d:hi*d], lo, ids[lo:hi], size, checks.shard(w))
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	if err := checks.verify(ctx, q, ds, workers); err != nil {
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
	checks := q.newBoxChecks(workers)
	ParallelRangesCtx(ctx, ds.N, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		tbl := make([]int32, cells)
		if q.countRows(ctx, ds.Data[lo*d:hi*d], lo, ids[lo:hi], tbl, checks.shard(w)) {
			tbls[w] = tbl
		}
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	if err := checks.verify(ctx, q, ds, workers); err != nil {
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
