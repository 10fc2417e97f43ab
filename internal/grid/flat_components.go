package grid

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Connectivity selects which cells count as neighbors during
// connected-component labeling.
type Connectivity int

const (
	// Faces connects cells that differ by ±1 in exactly one dimension
	// (2d neighbors; 4-connectivity in 2-D). This is the default and the
	// only option that scales to high dimension.
	Faces Connectivity = iota
	// Full connects cells that differ by at most 1 in every dimension
	// (3ᵈ−1 neighbors; 8-connectivity in 2-D). Limited to d ≤ 8.
	Full
)

// maxFullDim bounds Full connectivity: 3⁸−1 = 6560 neighbor offsets is the
// largest fan-out we allow per cell.
const maxFullDim = 8

// Component labeling, sharded by cell range: the canonical cell stream is
// carved into contiguous index ranges, each worker collects its range's
// adjacency edges independently (neighbors found by binary search in the
// canonical order, so an edge whose endpoints straddle a range boundary is
// discovered exactly like an interior one — boundary stitching is free),
// one sequential union-find pass folds all edge lists together, and the
// components are numbered in keyByteLess order of their first cell. The
// labels are the same at every worker count.

// isCanonical reports whether f's cells are in strictly increasing
// canonical order (the order quantization and the full transform emit).
func isCanonical(f *FlatGrid) bool {
	d := f.Dim()
	for i := 1; i < f.Len(); i++ {
		if cmpCoords(f.Coords[(i-1)*d:i*d], f.Coords[i*d:(i+1)*d]) >= 0 {
			return false
		}
	}
	return true
}

// ComponentsFlatAutoCtx labels the cells of canonical grid f with
// consecutive component ids starting at 0 under the chosen connectivity,
// returning one label per cell index plus the component count. Components
// are numbered in keyByteLess order of their first cell: per dimension,
// by the coordinate's low byte, then its high byte.
// Grids under parallelCellCutoff cells run on one worker. A grid not in
// canonical order is refused with an ErrInvalidInput-tagged error.
// Cancellation is polled inside every shard and between the union and
// numbering passes; f is never modified, so a cancelled run has no side
// effects.
func ComponentsFlatAutoCtx(ctx context.Context, f *FlatGrid, conn Connectivity, workers int) ([]int32, int, error) {
	d := f.Dim()
	m := f.Len()
	if conn == Full && d > maxFullDim {
		return nil, 0, invalidInput(fmt.Errorf("grid: Full connectivity limited to %d dimensions, grid has %d", maxFullDim, d))
	}
	if !isCanonical(f) {
		return nil, 0, invalidInput(errors.New("grid: component labeling needs a grid in canonical cell order"))
	}
	labels := make([]int32, m)
	if m == 0 {
		return labels, 0, nil
	}

	// Phase 1: each worker scans a contiguous range of the canonical cell
	// stream and records every adjacency (i, t) with i < t as an edge pair.
	// Only "positive" offsets are enumerated (+1 in one dimension for
	// Faces; first non-zero offset positive for Full), so each unordered
	// neighbor pair is found exactly once, by its lexicographically smaller
	// endpoint — wherever the two endpoints live, range boundaries
	// included.
	if workers < 1 || m < parallelCellCutoff {
		workers = 1
	}
	workers = min(workers, m)
	edges := make([][]int32, workers)
	ParallelRangesCtx(ctx, m, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		var out []int32
		nb := make([]uint16, d)
		switch conn {
		case Faces:
			for i := lo; i < hi; i++ {
				if (i-lo)%ctxCheckStride == ctxCheckStride-1 && ctx.Err() != nil {
					return
				}
				cell := f.Coords[i*d : (i+1)*d]
				copy(nb, cell)
				for j := 0; j < d; j++ {
					c := int(cell[j]) + 1
					if c >= f.Size[j] {
						continue
					}
					nb[j] = uint16(c)
					if t := f.Find(nb); t >= 0 {
						out = append(out, int32(i), int32(t))
					}
					nb[j] = cell[j]
				}
			}
		case Full:
			off := make([]int, d)
			for i := lo; i < hi; i++ {
				if (i-lo)%ctxCheckStride == ctxCheckStride-1 && ctx.Err() != nil {
					return
				}
				cell := f.Coords[i*d : (i+1)*d]
				// Enumerate offsets in {-1,0,1}ᵈ whose first non-zero
				// entry is +1: the "greater-than" half, so every pair is
				// seen once from its canonical-smaller endpoint.
				for j := range off {
					off[j] = 0
				}
				// Counting up from {0,…,0,+1} with off[0] most significant
				// visits exactly the offsets lexicographically above the
				// zero vector — the ones whose first non-zero entry is +1.
				off[d-1] = 1
				for {
					inBounds := true
					for j, o := range off {
						c := int(cell[j]) + o
						if c < 0 || c >= f.Size[j] {
							inBounds = false
							break
						}
						nb[j] = uint16(c)
					}
					if inBounds {
						if t := f.Find(nb); t >= 0 {
							out = append(out, int32(i), int32(t))
						}
					}
					// Advance the mixed-radix counter over {-1,0,1}ᵈ
					// (least-significant dimension last, matching canonical
					// significance).
					j := d - 1
					for ; j >= 0; j-- {
						off[j]++
						if off[j] <= 1 {
							break
						}
						off[j] = -1
					}
					if j < 0 {
						break
					}
				}
			}
		}
		edges[w] = out
	})
	if err := CtxErr(ctx); err != nil {
		return nil, 0, err
	}

	// Phase 2: stitch — one union-find over every worker's edges. The
	// union order does not affect the result (components are a partition);
	// the numbering pass below fixes label order deterministically.
	parent := make([]int32, m)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, es := range edges {
		for k := 0; k < len(es); k += 2 {
			ra, rb := find(es[k]), find(es[k+1])
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	if err := CtxErr(ctx); err != nil {
		return nil, 0, err
	}

	// Phase 3: number components in keyByteLess order of their first
	// cell.
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		return keyByteLess(f.CellCoords(int(perm[a])), f.CellCoords(int(perm[b])))
	})
	rootLabel := make([]int32, m)
	for i := range rootLabel {
		rootLabel[i] = -1
	}
	next := int32(0)
	for _, i := range perm {
		r := find(i)
		if rootLabel[r] < 0 {
			rootLabel[r] = next
			next++
		}
	}
	for i := 0; i < m; i++ {
		labels[i] = rootLabel[find(int32(i))]
	}
	return labels, int(next), nil
}

// ComponentMasses returns the total density mass of each component label,
// summed in cell order.
func ComponentMasses(f *FlatGrid, labels []int32, ncomp int) []float64 {
	out := make([]float64, ncomp)
	for i, l := range labels {
		out[l] += f.Vals[i]
	}
	return out
}
