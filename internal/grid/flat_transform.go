package grid

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"adawave/internal/wavelet"
)

// parallelCellCutoff is the occupied-cell count below which the transform
// and quantizer run single-threaded: under it, goroutine fan-out costs more
// than the sweep itself.
const parallelCellCutoff = 2048

// parallelTableCells is the cell count from which a sweep builds its slab
// table and copies its output on every worker. Below it the serial passes
// are cheaper than the fan-out and the stitch.
const parallelTableCells = 1 << 16

// maxDenseSpace caps the key space of a dense suffix table: each worker
// holds a value per key, so the cap bounds that table at 8 MiB whatever
// the grid's size.
const maxDenseSpace = 1 << 20

// transformUnitCells is the input-cell budget of one transform work unit:
// the granule that is sharded across workers and between whose sweeps ctx
// is polled.
const transformUnitCells = 4096

// The transform sweeps a canonical grid without reordering it. Along
// dimension j, a block is a maximal run of cells sharing dimensions 0…j−1,
// and a slab is a run inside a block sharing coordinate j; canonical order
// keeps each slab sorted by the remaining suffix j+1…d−1. Output cell
// (prefix, k, suffix) gathers the ≤ L slabs at j = 2k−Center … 2k−Center+L−1
// (the window of row k), so the block's outputs for each k are the window's
// cells summed by suffix, emitted in ascending suffix order: canonical
// order again. A window is summed one of two ways. When the suffix key is
// exact and its space is small, its cells are accumulated into a dense
// table indexed by key whose occupied entries are read back in key order;
// otherwise its slabs are merged by suffix. Both add each output's terms
// from +0 in ascending tap order, so they agree bit for bit.

// slab is one slab of the sweep's table: its first cell and its coordinate
// along the transformed dimension. The cells of slab s are
// [slabs[s].start, slabs[s+1].start).
type slab struct {
	start int32
	c     int32
}

// unitPos is a position in a sweep's (block, k) output order; a work unit
// covers the outputs from one position up to the next.
type unitPos struct {
	block int32
	k     int32
}

// cursor walks one slab of a merge window: its next cell, the slab's end
// and the filter tap its cells take.
type cursor struct {
	i, end int32
	tap    float64
}

// Kernel indices of sweptWindows.
const (
	denseKernel = iota
	mergeKernel
)

var (
	// sweptWindows counts the windows each kernel has summed, and
	// mergeOnly, when set, sends every window to the merge; tests use both
	// to compare the kernels and to check that each one runs.
	sweptWindows [2]atomic.Int64
	mergeOnly    bool
)

// dimSweep is the read-only state of one dimension's sweep, shared by its
// workers. keys holds each cell's suffix packed most significant first,
// in fields of the given widths; when the suffix needs more than 64 bits
// only its leading dimensions are packed (exact is false) and equal keys
// fall back to comparing coordinates. space is the key space 2^bits when
// the keys are exact and it is at most twice the sweep's cells and at most
// maxDenseSpace, else 0; a window then takes the dense route when it holds
// at least one input cell per occupancy word of that space.
type dimSweep struct {
	f            *FlatGrid
	d, j, outLen int
	taps         []float64
	center, span int32
	slabs        []slab
	blocks       []int32 // slab offset of each block, plus an end sentinel
	keys         []uint64
	widths       []uint8
	exact        bool
	space, words int
}

// transformDimFlatCtx applies one level of the analysis low-pass filter
// along dimension j of a canonical grid, downsampling that dimension by 2,
// and writes the result — again canonical — into dst, reusing its capacity;
// f is only read. Every output cell sums the input cells of its window
// under the filter's taps, accumulated from +0 in ascending tap order, and
// work units of contiguous blocks and output ranges are sharded across
// workers (≤ 1 runs inline). Output cells whose accumulated value is zero
// are kept until coefficient denoising drops them. ctx is polled on entry,
// by each slab-table shard and once per work unit, and a cancelled
// transform returns the ctx error with dst's contents unspecified.
func transformDimFlatCtx(ctx context.Context, f *FlatGrid, j int, b wavelet.Basis, workers int, dst *FlatGrid) error {
	if j < 0 || j >= f.Dim() {
		panic(fmt.Sprintf("grid: transform dimension %d out of range (grid is %d-D)", j, f.Dim()))
	}
	d := f.Dim()
	m := f.Len()
	outLen := (f.Size[j] + 1) / 2
	dst.Size = append(dst.Size[:0], f.Size...)
	dst.Size[j] = outLen
	dst.Coords, dst.Vals = dst.Coords[:0], dst.Vals[:0]
	if m == 0 {
		return nil
	}
	if err := CtxErr(ctx); err != nil {
		return err
	}

	s := getFlatScratch()
	defer putFlatScratch(s)
	if workers <= 1 || m < parallelCellCutoff {
		workers = 1
	}
	sw, err := s.dimSweep(ctx, f, j, b, workers)
	if err != nil {
		return err
	}
	units := s.sweepUnits(sw)
	// Each worker sweeps a contiguous run of units into its own pooled
	// buffers; the runs are concatenated in unit order, so the result is
	// identical for every worker count.
	chunks := make([]*flatScratch, min(workers, len(units)-1))
	ParallelRangesCtx(ctx, len(units)-1, workers, func(w, lo, hi int) {
		ws := getFlatScratch()
		chunks[w] = ws
		for u := lo; u < hi && ctx.Err() == nil; u++ {
			sw.sweepUnit(units[u], units[u+1], ws)
		}
	})
	// Range carving may leave trailing chunks unused.
	for len(chunks) > 0 && chunks[len(chunks)-1] == nil {
		chunks = chunks[:len(chunks)-1]
	}
	if err = CtxErr(ctx); err == nil {
		concatChunks(ctx, chunks, d, dst)
	}
	for _, c := range chunks {
		for k, n := range c.windows {
			sweptWindows[k].Add(n)
		}
		c.windows = [2]int64{}
		c.outCoords, c.outVals = c.outCoords[:0], c.outVals[:0]
		putFlatScratch(c)
	}
	return err
}

// concatChunks writes the workers' output chunks one after another into
// dst, each chunk on its own worker once the output is large enough.
func concatChunks(ctx context.Context, chunks []*flatScratch, d int, dst *FlatGrid) {
	offs := make([]int, len(chunks)+1)
	for c, ch := range chunks {
		offs[c+1] = offs[c] + len(ch.outVals)
	}
	total := offs[len(chunks)]
	dst.Coords = slices.Grow(dst.Coords[:0], total*d)[:total*d]
	dst.Vals = slices.Grow(dst.Vals[:0], total)[:total]
	workers := 1
	if total >= parallelTableCells {
		workers = len(chunks)
	}
	ParallelRangesCtx(ctx, len(chunks), workers, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			copy(dst.Coords[offs[c]*d:], chunks[c].outCoords)
			copy(dst.Vals[offs[c]:], chunks[c].outVals)
		}
	})
}

// dimSweep builds the slab table and suffix keys of canonical grid f for
// the sweep along dimension j, in s's buffers. From parallelTableCells
// cells on it scans contiguous cell ranges on the workers (polling ctx
// once per range) and joins their slab lists in range order, which gives
// the table a serial scan builds.
func (s *flatScratch) dimSweep(ctx context.Context, f *FlatGrid, j int, b wavelet.Basis, workers int) (*dimSweep, error) {
	d, m := f.Dim(), f.Len()
	sw := &dimSweep{
		f: f, d: d, j: j, outLen: (f.Size[j] + 1) / 2,
		taps: b.Lo, center: int32(b.Center), span: int32(len(b.Lo) - 1),
	}
	// Pack as many leading suffix dimensions as fit in 64 bits.
	widths := s.widths[:0]
	used := 0
	for p := j + 1; p < d; p++ {
		w := bits.Len(uint(f.Size[p] - 1))
		if used+w > 64 {
			break
		}
		used += w
		widths = append(widths, uint8(w))
	}
	s.widths = widths
	sw.widths = widths
	sw.exact = len(widths) == d-j-1
	if j < d-1 {
		if cap(s.keys) < m {
			s.keys = make([]uint64, m)
		}
		sw.keys = s.keys[:m]
		if sw.exact && !mergeOnly && used < 32 && 1<<used <= min(2*m, maxDenseSpace) {
			sw.space = 1 << used
			sw.words = (sw.space + 63) / 64
		}
	}
	if workers <= 1 || m < parallelTableCells {
		s.slabs, s.blocks = sw.scanCells(0, m, s.slabs[:0], s.blocks[:0])
	} else {
		// A range of n cells starts at most n slabs and n blocks, so each
		// range writes its own into s's buffers from its first cell on;
		// the stretches then move down over the gaps, in range order.
		slabs := slices.Grow(s.slabs[:0], m+1)[:m]
		blocks := slices.Grow(s.blocks[:0], m+1)[:m]
		type part struct{ lo, slabs, blocks int }
		parts := make([]part, workers)
		ParallelRangesCtx(ctx, m, workers, func(w, lo, hi int) {
			if ctx.Err() != nil {
				return
			}
			sl, bl := sw.scanCells(lo, hi, slabs[lo:lo:hi], blocks[lo:lo:hi])
			parts[w] = part{lo, len(sl), len(bl)}
		})
		if err := CtxErr(ctx); err != nil {
			return nil, err
		}
		ns, nb := 0, 0
		for _, p := range parts {
			for _, bl := range blocks[p.lo : p.lo+p.blocks] {
				blocks[nb] = bl + int32(ns)
				nb++
			}
			copy(slabs[ns:], slabs[p.lo:p.lo+p.slabs])
			ns += p.slabs
		}
		s.slabs, s.blocks = slabs[:ns], blocks[:nb]
	}
	s.blocks = append(s.blocks, int32(len(s.slabs)))
	s.slabs = append(s.slabs, slab{int32(m), 0})
	sw.slabs, sw.blocks = s.slabs, s.blocks
	return sw, nil
}

// scanCells packs the suffix keys of cells [lo, hi) into sw.keys and
// appends the slabs that start in the range to slabs, and the offsets into
// slabs of the blocks that start there to blocks. A cell starts a slab
// (and maybe a block) by differing from its predecessor, so ranges can be
// scanned independently.
func (sw *dimSweep) scanCells(lo, hi int, slabs []slab, blocks []int32) ([]slab, []int32) {
	d, j, co := sw.d, sw.j, sw.f.Coords
	for i := lo; i < hi; i++ {
		cell := co[i*d : (i+1)*d]
		if sw.keys != nil {
			var key uint64
			for q, w := range sw.widths {
				key = key<<w | uint64(cell[j+1+q])
			}
			sw.keys[i] = key
		}
		p := 0
		if i > 0 {
			prev := co[(i-1)*d : i*d]
			for p <= j && prev[p] == cell[p] {
				p++
			}
			if p > j {
				continue // same slab
			}
		}
		if p < j || i == 0 {
			blocks = append(blocks, int32(len(slabs)))
		}
		slabs = append(slabs, slab{int32(i), int32(cell[j])})
	}
	return slabs, blocks
}

// sweepUnits cuts the sweep's (block, k) output order into work units of
// about transformUnitCells input cells each, returning their start
// positions plus an end sentinel. A cut after slab c lands at the first k
// whose window starts past c.
func (s *flatScratch) sweepUnits(sw *dimSweep) []unitPos {
	nBlocks := len(sw.blocks) - 1
	end := unitPos{int32(nBlocks), 0}
	units := append(s.units[:0], unitPos{})
	cells := 0
	for blk := 0; blk < nBlocks; blk++ {
		for sl := sw.blocks[blk]; sl < sw.blocks[blk+1]; sl++ {
			cells += int(sw.slabs[sl+1].start - sw.slabs[sl].start)
			if cells < transformUnitCells {
				continue
			}
			cells = 0
			pos := unitPos{int32(blk), (sw.slabs[sl].c+sw.center)/2 + 1}
			if int(pos.k) >= sw.outLen {
				pos = unitPos{int32(blk + 1), 0}
			}
			if pos != units[len(units)-1] {
				units = append(units, pos)
			}
		}
	}
	if units[len(units)-1] != end {
		units = append(units, end)
	}
	s.units = units
	return units
}

// sweepUnit appends the output cells from position from up to position to
// to ws's output buffers, block by block.
func (sw *dimSweep) sweepUnit(from, to unitPos, ws *flatScratch) {
	if sw.space > len(ws.acc) {
		// A pooled table is all zeros between windows, so a smaller
		// space reuses a prefix of it and a larger one starts fresh.
		ws.acc, ws.occ = make([]float64, sw.space), make([]uint64, sw.words)
	}
	for blk := from.block; blk <= to.block && int(blk) < len(sw.blocks)-1; blk++ {
		kLo, kHi := 0, sw.outLen
		if blk == from.block {
			kLo = int(from.k)
		}
		if blk == to.block {
			kHi = int(to.k)
		}
		if kLo < kHi {
			sw.sweepBlock(int(blk), kLo, kHi, ws)
		}
	}
}

// sweepBlock appends block blk's output cells for k ∈ [kLo, kHi), skipping
// every k whose window holds no slab. A window takes the dense route
// (accumulateSlabs) when the sweep has a dense space and the window holds
// at least sw.words input cells, so scanning the occupancy words costs at
// most one word per input cell; any other window is merged (mergeSlabs).
// The choice depends only on the grid, never on the worker count.
func (sw *dimSweep) sweepBlock(blk, kLo, kHi int, ws *flatScratch) {
	d, j := sw.d, sw.j
	coords, vals, slabs := sw.f.Coords, sw.f.Vals, sw.slabs
	lo, hi, last := int(sw.blocks[blk]), int(sw.blocks[blk]), int(sw.blocks[blk+1])
	first := int(slabs[lo].start)
	prefix := coords[first*d : first*d+j]
	oc, ov := ws.outCoords, ws.outVals
	for k := kLo; k < kHi; k++ {
		w0 := int32(2*k) - sw.center // the coordinate under tap 0
		for lo < last && slabs[lo].c < w0 {
			lo++
		}
		if lo == last {
			break
		}
		if c := slabs[lo].c; c > w0+sw.span {
			// No slab in the window: jump to the first k whose window
			// reaches c.
			k = int(c+sw.center-sw.span+1)/2 - 1
			continue
		}
		hi = max(hi, lo)
		for hi < last && slabs[hi].c <= w0+sw.span {
			hi++
		}
		if j == d-1 {
			// With no suffix, every slab is a single cell.
			acc := 0.0
			for q := lo; q < hi; q++ {
				acc += sw.taps[slabs[q].c-w0] * vals[slabs[q].start]
			}
			i := int(slabs[lo].start)
			oc = append(oc, coords[i*d:(i+1)*d]...)
			oc[len(oc)-d+j] = uint16(k)
			ov = append(ov, acc)
			continue
		}
		if sw.space > 0 && sw.words <= int(slabs[hi].start-slabs[lo].start) {
			oc, ov = sw.accumulateSlabs(k, w0, slabs[lo:hi+1], prefix, ws, oc, ov)
			ws.windows[denseKernel]++
			continue
		}
		curs := ws.curs[:0]
		for q := lo; q < hi; q++ {
			curs = append(curs, cursor{slabs[q].start, slabs[q+1].start, sw.taps[slabs[q].c-w0]})
		}
		oc, ov = sw.mergeSlabs(k, curs, oc, ov)
		ws.curs = curs
		ws.windows[mergeKernel]++
	}
	ws.outCoords, ws.outVals = oc, ov
}

// accumulateSlabs appends output row k of one block, whose window is
// win[:len(win)−1] (win's last entry bounds its last slab), by dense
// accumulation. Walking the slabs in ascending tap order, it adds
// Lo[t]·v into ws.acc[key] and marks key in ws.occ; it then emits the
// marked keys in ascending order, building each output's coordinates from
// the block prefix, k and the suffix decoded from the key, and resets
// every entry it read to +0 and every word to 0. Each output thus performs
// mergeSlabs' float operations in mergeSlabs' order.
func (sw *dimSweep) accumulateSlabs(k int, w0 int32, win []slab, prefix []uint16, ws *flatScratch, oc []uint16, ov []float64) ([]uint16, []float64) {
	d, j := sw.d, sw.j
	vals, keys := sw.f.Vals, sw.keys
	acc, occ := ws.acc[:sw.space], ws.occ[:sw.words]
	for q := 0; q < len(win)-1; q++ {
		tap := sw.taps[win[q].c-w0]
		for i := win[q].start; i < win[q+1].start; i++ {
			key := keys[i]
			acc[key] += tap * vals[i]
			occ[key>>6] |= 1 << (key & 63)
		}
	}
	for wi, word := range occ {
		if word == 0 {
			continue
		}
		occ[wi] = 0
		for ; word != 0; word &= word - 1 {
			key := wi<<6 | bits.TrailingZeros64(word)
			n := len(oc)
			oc = slices.Grow(oc, d)[:n+d]
			copy(oc[n:], prefix)
			oc[n+j] = uint16(k)
			for p, rest := d-1, key; p > j; p-- {
				w := sw.widths[p-j-1]
				oc[n+p] = uint16(rest & (1<<w - 1))
				rest >>= w
			}
			ov = append(ov, acc[key])
			acc[key] = 0
		}
	}
	return oc, ov
}

// mergeSlabs appends output row k of one block: the merge by suffix of the
// window's slabs, for windows the dense route does not take. Each output
// value is accumulated as acc := +0; acc += Lo[t]·v over its cells in
// ascending tap t (the cursors' order) — the order in which the cells
// ascend along dimension j.
func (sw *dimSweep) mergeSlabs(k int, curs []cursor, oc []uint16, ov []float64) ([]uint16, []float64) {
	d, j := sw.d, sw.j
	coords, vals, keys := sw.f.Coords, sw.f.Vals, sw.keys
	for len(curs) > 0 {
		best := curs[0].i
		bk := keys[best]
		for _, c := range curs[1:] {
			if key := keys[c.i]; key < bk || key == bk && !sw.exact && sw.cmpSuffix(c.i, best) < 0 {
				best, bk = c.i, key
			}
		}
		acc := 0.0
		live := 0
		for _, c := range curs {
			if keys[c.i] == bk && (sw.exact || sw.cmpSuffix(c.i, best) == 0) {
				acc += c.tap * vals[c.i]
				if c.i++; c.i == c.end {
					continue
				}
			}
			curs[live] = c
			live++
		}
		curs = curs[:live]
		i := int(best)
		oc = append(oc, coords[i*d:(i+1)*d]...)
		oc[len(oc)-d+j] = uint16(k)
		ov = append(ov, acc)
	}
	return oc, ov
}

// cmpSuffix compares the suffixes (dimensions j+1…d−1) of cells a and b.
func (sw *dimSweep) cmpSuffix(a, b int32) int {
	d, j := int32(sw.d), int32(sw.j)
	return cmpCoords(sw.f.Coords[a*d+j+1:(a+1)*d], sw.f.Coords[b*d+j+1:(b+1)*d])
}

// DefaultTransformCellCap bounds the occupied cells the sparse transform
// may produce (see growthCap). It is far above any healthy workload — a
// densifying high-dimensional transform crosses it within seconds, a
// legitimate one never does.
const DefaultTransformCellCap = 1 << 23

// growthCap returns the per-level occupied-cell budget for an input of m
// cells: healthy transforms either shrink the cell count (dense low-d
// grids merge under downsampling) or scatter by at most ⌈L/2⌉ per
// dimension bounded by the output grid size; 32× input with a 2¹⁶ floor
// accommodates every legitimate case while catching exponential
// densification after a couple of dimensions instead of gigabytes later.
func growthCap(m int) int {
	return min(max(32*m, 1<<16), DefaultTransformCellCap)
}

// TransformFlatCtx applies one full decomposition level (the low-pass
// filter along every dimension in turn) to a canonical grid, returning a new
// canonical grid; f is never modified, and ctx is polled between and within
// the per-dimension sweeps. It aborts with an ErrInvalidInput-tagged error
// once the occupied cells exceed growthCap(f.Len()) after any dimension:
// long filters densify sparse high-dimensional grids exponentially. The grids between dimensions are
// pooled; only the final one is allocated.
func TransformFlatCtx(ctx context.Context, f *FlatGrid, b wavelet.Basis, workers int) (*FlatGrid, error) {
	d := f.Dim()
	maxCells := growthCap(f.Len())
	cur := f
	release := func(g *FlatGrid) {
		if g != f {
			putFlatGrid(g)
		}
	}
	for j := 0; j < d; j++ {
		next := &FlatGrid{}
		if j < d-1 {
			next = getFlatGrid()
		}
		err := transformDimFlatCtx(ctx, cur, j, b, workers, next)
		release(cur)
		cur = next
		if err == nil && cur.Len() > maxCells {
			err = invalidInput(fmt.Errorf(
				"grid: wavelet transform densified the sparse grid to %d cells after dimension %d (cap %d); use the 2-tap haar basis for high-dimensional data",
				cur.Len(), j+1, maxCells))
		}
		if err != nil {
			if j < d-1 {
				release(cur)
			}
			return nil, err
		}
	}
	return cur, nil
}

// TransformLevelsFlatCtx applies `levels` full decomposition levels to a
// canonical grid, each through TransformFlatCtx, and returns the
// approximation grid of each level (level 1 first) — the multi-resolution
// stack. Every returned level is canonical, freshly allocated and owned by
// the caller. A cancelled chain returns no levels, and f is never modified.
func TransformLevelsFlatCtx(ctx context.Context, f *FlatGrid, b wavelet.Basis, levels, workers int) ([]*FlatGrid, error) {
	if levels < 1 {
		return nil, fmt.Errorf("grid: levels must be ≥ 1, got %d", levels)
	}
	out := make([]*FlatGrid, 0, levels)
	cur := f
	for l := 0; l < levels; l++ {
		for j := 0; j < cur.Dim(); j++ {
			if cur.Size[j] < 2 {
				return nil, invalidInput(fmt.Errorf("grid: dimension %d of size %d too small for level %d", j, cur.Size[j], l+1))
			}
		}
		next, err := TransformFlatCtx(ctx, cur, b, workers)
		if err != nil {
			return nil, err
		}
		cur = next
		out = append(out, cur)
	}
	return out, nil
}
