package grid

import (
	"context"
	"fmt"
	"os"
)

// The cell merge kernel. AdaWave's cell masses are additive point counts,
// so every grid this package builds from parts is a k-way merge of
// canonical cell sequences: the in-RAM quantize shards (QuantizeDatasetCtx),
// the external sort's retained and spilled runs
// (QuantizeDatasetExternalPackedCtx), a streaming session's live grid plus
// its delta (MergePackedFlatCtx) and the tombstone sweep of one grid
// (PackedGrid.Compact). All of them are one call of mergeCells over
// cellCursors. Removal is the signed form of the same identity: a departed
// point's mass is subtracted in place, leaving a zero-mass tombstone so no
// surviving point's memoized cell index moves, and the next merge drops it
// when the id renumbering is paid anyway.

// cellSink receives merged cells in canonical order: *FlatGrid and
// *PackedBuilder.
type cellSink interface {
	Len() int
	Append(coords []uint16, mass float64)
}

// mergeCells k-way merges the canonical cell sequences srcs into out and
// returns one remap per input: remap[s][j] is the output index of source
// s's cell j, or −1 if that cell was dropped. Equal cells are summed in
// input order (the loser tree breaks ties by input index), so the sums are
// deterministic and bit-identical to a sequential fold. A merged cell whose
// mass is ≤ 0 — a removal tombstone, or a cell exactly cancelled by a
// negative delta — is not appended, and every remap entry that pointed at
// it is −1; quantization never produces such masses, so the rule is inert
// there.
//
// Cancellation is polled every ctxCheckStride emitted cells. The sources
// are only read, so a cancelled merge leaves its inputs as they were.
func mergeCells(ctx context.Context, srcs []*cellCursor, out cellSink) ([][]int32, error) {
	remap := make([][]int32, len(srcs))
	for s, c := range srcs {
		remap[s] = make([]int32, c.n)
		c.remap = remap[s]
	}
	if len(srcs) == 0 {
		return remap, nil
	}
	lt := newLoserTree(srcs)
	// The winner's coordinates are copied out before any cursor advances:
	// a block refill overwrites the window they point into.
	cell := make([]uint16, srcs[0].d)
	from := make([]*cellCursor, 0, len(srcs))
	next := int32(out.Len())
	s := lt.winner()
	for emitted := 0; s >= 0; emitted++ {
		if emitted%ctxCheckStride == ctxCheckStride-1 {
			if err := CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		copy(cell, srcs[s].cur)
		// Take every head equal to cell, in input order, remapping each to
		// the output index the cell gets if it survives. The loop leaves s
		// on the next winner. A source holds each cell at most once, so
		// when the source just taken wins again its head is a new cell.
		var mass float64
		from = from[:0]
		for {
			c := srcs[s]
			mass += c.mass()
			c.remap[c.idx] = next
			from = append(from, c)
			if err := c.advance(); err != nil {
				return nil, err
			}
			lt.fix(s)
			taken := s
			if s = lt.winner(); s < 0 || s == taken || cmpCoords(srcs[s].cur, cell) != 0 {
				break
			}
		}
		if mass > 0 {
			out.Append(cell, mass)
			next++
			continue
		}
		// Each contribution is the cell just before its source's (advanced)
		// current one.
		for _, c := range from {
			c.remap[c.idx-1] = -1
		}
	}
	return remap, nil
}

// cellCursor streams one canonical cell sequence through a decoded window
// of count cells (coords, masses), pos being the current one. A flat grid
// is a single window over its own arrays, with no refill and no copy; a
// packed grid refills the window block by block with decodeBlockInto; a
// spill run (openSpillCursor) refills it from its blockReader. It is the
// one iteration primitive of the merge kernel, TotalMass and the snapshot
// writer.
type cellCursor struct {
	d    int
	n    int      // cells in the whole sequence
	idx  int32    // sequence index of the current cell
	cur  []uint16 // the current cell's coordinates, a view into the window
	done bool     // every cell consumed

	coords []uint16 // decoded window, count·d values
	masses []float64
	count  int // cells in the window
	pos    int // current cell within the window

	p      *PackedGrid // packed source
	blk    int         // next block of p to decode
	blocks *blockReader
	f      *os.File // the spill file behind blocks

	remap []int32 // the merge's output index per sequence cell
}

// flatCursor returns a cursor on f's first cell.
func flatCursor(f *FlatGrid) *cellCursor {
	c := &cellCursor{d: f.Dim(), n: f.Len(), idx: -1, coords: f.Coords, masses: f.Vals, count: f.Len(), pos: -1}
	c.advance() // an in-memory source never fails
	return c
}

// packedCursor returns a cursor on p's first cell.
func packedCursor(p *PackedGrid) *cellCursor {
	d, buf := p.Dim(), min(p.n, packedBlockCells)
	c := &cellCursor{d: d, n: p.n, idx: -1, coords: make([]uint16, buf*d), masses: make([]float64, buf), pos: -1, p: p}
	c.advance() // an in-memory source never fails
	return c
}

// advance moves to the next cell, refilling the window from the source once
// it is exhausted; past the last cell the cursor reports done. The previous
// cur view may be overwritten by the refill. Only a spill source can fail.
func (c *cellCursor) advance() error {
	c.idx++
	if c.pos++; c.pos < c.count {
		c.cur = c.coords[c.pos*c.d : (c.pos+1)*c.d]
		return nil
	}
	c.pos, c.count = 0, 0
	switch {
	case c.p != nil && c.blk < c.p.blocks():
		c.count = c.p.decodeBlockInto(c.blk, c.coords, c.masses)
		c.blk++
	case c.blocks != nil:
		count, err := c.blocks.next()
		if err != nil {
			c.done = true
			return fmt.Errorf("grid: external sort merge: %w: %v", ErrCorruptSpillRun, err)
		}
		c.count = count
	}
	c.done = c.count == 0
	if !c.done {
		c.cur = c.coords[:c.d]
	}
	return nil
}

// mass returns the current cell's mass.
func (c *cellCursor) mass() float64 { return c.masses[c.pos] }

// close releases the spill file, if any.
func (c *cellCursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// --- loser tree -----------------------------------------------------------

// loserTree is a k-way tournament tree over cell cursors: winner() is O(1),
// fix(s) after advancing cursor s replays only s's log₂(k) matches. Ties on
// equal cells go to the lower input index, which is what makes mergeCells
// sum equal cells in input order.
type loserTree struct {
	k    int
	tree []int32 // tree[0] = overall winner; tree[1:] = match losers
	srcs []*cellCursor
}

func newLoserTree(srcs []*cellCursor) *loserTree {
	k := len(srcs)
	lt := &loserTree{k: k, srcs: srcs, tree: make([]int32, k)}
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for s := k - 1; s >= 0; s-- {
		lt.seed(int32(s))
	}
	return lt
}

// beats reports whether cursor a wins against cursor b (smaller cell, input
// index breaking ties; an exhausted cursor loses to every live one).
func (lt *loserTree) beats(a, b int32) bool {
	sa, sb := lt.srcs[a], lt.srcs[b]
	if sa.done {
		return false
	}
	if sb.done {
		return true
	}
	c := cmpCoords(sa.cur, sb.cur)
	return c < 0 || (c == 0 && a < b)
}

// seed plays cursor s up the tree during construction: the first arrival at
// an empty match waits there as the provisional loser.
func (lt *loserTree) seed(s int32) {
	winner := s
	for t := (int(s) + lt.k) / 2; t > 0; t /= 2 {
		if lt.tree[t] < 0 {
			lt.tree[t] = winner
			return
		}
		if lt.beats(lt.tree[t], winner) {
			winner, lt.tree[t] = lt.tree[t], winner
		}
	}
	lt.tree[0] = winner
}

// fix replays cursor s's matches after its head advanced.
func (lt *loserTree) fix(s int32) {
	winner := s
	for t := (int(s) + lt.k) / 2; t > 0; t /= 2 {
		if lt.beats(lt.tree[t], winner) {
			winner, lt.tree[t] = lt.tree[t], winner
		}
	}
	lt.tree[0] = winner
}

// winner returns the cursor holding the smallest head cell, or −1 when every
// cursor is exhausted.
func (lt *loserTree) winner() int32 {
	w := lt.tree[0]
	if w < 0 || lt.srcs[w].done {
		return -1
	}
	return w
}
