package grid

import "context"

// The flat two-way merge and in-place compaction the production merge
// kernel replaced, kept verbatim as the reference the kernel's tests
// compare against (on the want side only). They live here rather than in
// internal/oracle because oracle imports this package.

// MergeFlatCtx merges two canonically ordered grids into a new canonical
// grid, summing the masses of cells present in both. Cells whose merged
// mass is ≤ 0 — tombstones left by signed-mass removal, or exactly
// cancelled by a negative delta — are dropped. It returns the merged grid
// plus one remap per input: liveRemap[i] (resp. deltaRemap[j]) is the
// merged index of live's cell i (delta's cell j), or −1 if the cell was
// dropped. Both inputs must share Size and be in canonical order (see
// SortCanonical). It is the reference the packed fold, MergePackedFlatCtx,
// is tested and benchmarked against.
//
// Cancellation is polled every ctxCheckStride merged cells. Neither input
// is modified, so a cancelled merge leaves the live grid (and every
// memoized cell id into it) exactly as it was.
func MergeFlatCtx(ctx context.Context, live, delta *FlatGrid) (merged *FlatGrid, liveRemap, deltaRemap []int32, err error) {
	d := live.Dim()
	nl, nd := live.Len(), delta.Len()
	merged = NewFlat(live.Size, nl+nd)
	liveRemap = make([]int32, nl)
	deltaRemap = make([]int32, nd)
	i, j := 0, 0
	for iter := 0; i < nl || j < nd; iter++ {
		if iter%ctxCheckStride == ctxCheckStride-1 {
			if err := CtxErr(ctx); err != nil {
				return nil, nil, nil, err
			}
		}
		var c int
		switch {
		case i == nl:
			c = 1
		case j == nd:
			c = -1
		default:
			c = cmpCoords(live.Coords[i*d:(i+1)*d], delta.Coords[j*d:(j+1)*d])
		}
		var coords []uint16
		var mass float64
		out := int32(merged.Len())
		switch {
		case c < 0:
			coords, mass = live.Coords[i*d:(i+1)*d], live.Vals[i]
			liveRemap[i] = out
			i++
		case c > 0:
			coords, mass = delta.Coords[j*d:(j+1)*d], delta.Vals[j]
			deltaRemap[j] = out
			j++
		default:
			coords, mass = live.Coords[i*d:(i+1)*d], live.Vals[i]+delta.Vals[j]
			liveRemap[i] = out
			deltaRemap[j] = out
			i++
			j++
		}
		if mass <= 0 {
			// Tombstone: drop the cell and poison the remap entries that
			// pointed at it (no surviving point references a zero cell).
			if c <= 0 {
				liveRemap[i-1] = -1
			}
			if c >= 0 {
				deltaRemap[j-1] = -1
			}
			continue
		}
		merged.Append(coords, mass)
	}
	return merged, liveRemap, deltaRemap, nil
}

// Compact removes zero-or-negative-mass tombstone cells in place, preserving
// canonical order, and returns the remap: remap[i] is cell i's new index, or
// −1 if it was swept. A nil return means the grid held no tombstones and
// nothing moved.
func (f *FlatGrid) Compact() []int32 {
	dirty := false
	for _, v := range f.Vals {
		if v <= 0 {
			dirty = true
			break
		}
	}
	if !dirty {
		return nil
	}
	d := f.Dim()
	remap := make([]int32, f.Len())
	w := 0
	for i, v := range f.Vals {
		if v <= 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(w)
		if w != i {
			copy(f.Coords[w*d:(w+1)*d], f.Coords[i*d:(i+1)*d])
			f.Vals[w] = v
		}
		w++
	}
	f.Coords = f.Coords[:w*d]
	f.Vals = f.Vals[:w]
	return remap
}
