package grid

import (
	"context"
	"fmt"
	"sort"
)

// ComponentsFlat labels the cells of f with consecutive component ids
// starting at 0 under the chosen connectivity, returning one label per cell
// index plus the component count. It is the flat counterpart of Components:
// instead of BFS over map probes it unions sorted-adjacent cells (one
// sorted pass per dimension for Faces; binary search per offset for Full)
// and then numbers the components in Key byte order of their first cell —
// exactly the order the map BFS assigns ids in, so the two labelings agree
// cell for cell. f's cell order is left untouched.
func ComponentsFlat(f *FlatGrid, conn Connectivity) ([]int32, int, error) {
	return ComponentsFlatCtx(context.Background(), f, conn)
}

// ComponentsFlatCtx is ComponentsFlat with cooperative cancellation, polled
// between the per-dimension union passes (Faces), every ctxCheckStride cells
// of the neighbor enumeration (Full), and before the final numbering pass.
// f is never modified, so a cancelled run has no side effects.
func ComponentsFlatCtx(ctx context.Context, f *FlatGrid, conn Connectivity) ([]int32, int, error) {
	d := f.Dim()
	m := f.Len()
	if conn == Full && d > maxFullDim {
		return nil, 0, invalidInput(fmt.Errorf("grid: Full connectivity limited to %d dimensions, grid has %d", maxFullDim, d))
	}
	labels := make([]int32, m)
	if m == 0 {
		return labels, 0, nil
	}
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
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	perm := make([]int32, m)
	switch conn {
	case Faces:
		// One sorted pass per dimension: cells adjacent in (others-major,
		// j-minor) order that agree on every other coordinate and differ by
		// one in j are face neighbors.
		for j := 0; j < d; j++ {
			if err := CtxErr(ctx); err != nil {
				return nil, 0, err
			}
			for i := range perm {
				perm[i] = int32(i)
			}
			sort.Slice(perm, func(a, b int) bool {
				ca := f.CellCoords(int(perm[a]))
				cb := f.CellCoords(int(perm[b]))
				for p := 0; p < d; p++ {
					if p != j && ca[p] != cb[p] {
						return ca[p] < cb[p]
					}
				}
				return ca[j] < cb[j]
			})
			for t := 1; t < m; t++ {
				a, b := perm[t-1], perm[t]
				ca, cb := f.CellCoords(int(a)), f.CellCoords(int(b))
				if cb[j] == ca[j]+1 && sameLineExcept(f.Coords, d, int(a), int(b), j) {
					union(a, b)
				}
			}
		}
	case Full:
		// Canonical order for binary-search neighbor lookups.
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.Slice(perm, func(a, b int) bool {
			return cmpCoords(f.CellCoords(int(perm[a])), f.CellCoords(int(perm[b]))) < 0
		})
		lookup := func(coords []uint16) int32 {
			lo, hi := 0, m
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if cmpCoords(f.CellCoords(int(perm[mid])), coords) < 0 {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < m && cmpCoords(f.CellCoords(int(perm[lo])), coords) == 0 {
				return perm[lo]
			}
			return -1
		}
		off := make([]int, d)
		nb := make([]uint16, d)
		for i := 0; i < m; i++ {
			if i%ctxCheckStride == ctxCheckStride-1 {
				if err := CtxErr(ctx); err != nil {
					return nil, 0, err
				}
			}
			cell := f.CellCoords(i)
			for j := range off {
				off[j] = -1
			}
			for {
				allZero := true
				for _, o := range off {
					if o != 0 {
						allZero = false
						break
					}
				}
				if !allZero {
					ok := true
					for j, o := range off {
						c := int(cell[j]) + o
						if c < 0 || c >= f.Size[j] {
							ok = false
							break
						}
						nb[j] = uint16(c)
					}
					if ok {
						if t := lookup(nb); t >= 0 {
							union(int32(i), t)
						}
					}
				}
				j := 0
				for ; j < len(off); j++ {
					off[j]++
					if off[j] <= 1 {
						break
					}
					off[j] = -1
				}
				if j == len(off) {
					break
				}
			}
		}
	}

	// Number components by the Key byte order of their first cell, matching
	// the map BFS visit order.
	if err := CtxErr(ctx); err != nil {
		return nil, 0, err
	}
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

// ComponentMasses returns the total density mass of each component label
// (flat counterpart of ComponentSizes), summed in cell order.
func ComponentMasses(f *FlatGrid, labels []int32, ncomp int) []float64 {
	out := make([]float64, ncomp)
	for i, l := range labels {
		out[l] += f.Vals[i]
	}
	return out
}

// sameLineExcept reports whether cells a and b agree on every coordinate
// except dimension j.
func sameLineExcept(coords []uint16, d, a, b, j int) bool {
	ca, cb := coords[a*d:(a+1)*d], coords[b*d:(b+1)*d]
	for p := 0; p < d; p++ {
		if p != j && ca[p] != cb[p] {
			return false
		}
	}
	return true
}
