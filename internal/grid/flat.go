// Package grid implements the sparse-grid substrate of AdaWave: the “grid
// labeling” data structure from the paper (only occupied cells are stored,
// so memory is O(occupied cells) instead of O(Mᵈ)), the feature-space
// quantizer, the per-dimension sparse wavelet transform, connected-
// component labeling over occupied cells, and the packed, snapshot, merge
// and external-sort machinery that keeps a grid resident, durable or out of
// core.
package grid

import (
	"slices"
	"sync"
	"sync/atomic"
)

// FlatGrid is the working grid: packed uint16 cell coordinates plus a
// parallel density slice — two flat slices that radix-sort in O(m·d) and
// sweep with sequential memory access, the representation the parallel
// engine (quantize shards, slab-merge transform, union-find components)
// runs on. Cell order is an explicit, documented property of each
// operation: quantization and the full separable transform leave the grid
// in canonical order (lexicographic by coordinate, dimension 0 first),
// which Find relies on.
type FlatGrid struct {
	// Size is the number of cells along each dimension.
	Size []int
	// Coords holds the cell coordinates, Dim() values per cell:
	// cell i occupies Coords[i*Dim() : (i+1)*Dim()].
	Coords []uint16
	// Vals holds one density per cell.
	Vals []float64
}

// NewFlat returns an empty flat grid with the given per-dimension sizes and
// room for capacity cells.
func NewFlat(size []int, capacity int) *FlatGrid {
	s := append([]int(nil), size...)
	return &FlatGrid{
		Size:   s,
		Coords: make([]uint16, 0, capacity*len(s)),
		Vals:   make([]float64, 0, capacity),
	}
}

// Dim returns the dimensionality of the grid.
func (f *FlatGrid) Dim() int { return len(f.Size) }

// Len returns the number of stored cells (the paper's m).
func (f *FlatGrid) Len() int { return len(f.Vals) }

// CellCoords returns the coordinate slice of cell i (a view, not a copy).
func (f *FlatGrid) CellCoords(i int) []uint16 {
	d := f.Dim()
	return f.Coords[i*d : (i+1)*d]
}

// Append adds a cell. The caller is responsible for keeping cells unique.
func (f *FlatGrid) Append(coords []uint16, v float64) {
	f.Coords = append(f.Coords, coords...)
	f.Vals = append(f.Vals, v)
}

// TotalMass returns the sum of all cell densities.
func (f *FlatGrid) TotalMass() float64 {
	var s float64
	for _, v := range f.Vals {
		s += v
	}
	return s
}

// SortedDensities returns all cell densities in descending order — the
// curve on which the adaptive threshold (paper Fig. 6) is chosen.
func (f *FlatGrid) SortedDensities() []float64 {
	return f.SortedDensitiesInto(nil)
}

// SortedDensitiesInto is SortedDensities filling buf (whose capacity is
// reused) instead of allocating — the pooled form for callers that sort one
// density curve per level.
func (f *FlatGrid) SortedDensitiesInto(buf []float64) []float64 {
	buf = append(buf[:0], f.Vals...)
	slices.Sort(buf)
	slices.Reverse(buf)
	return buf
}

// DropBelow removes cells with density < min in place, preserving cell
// order, and returns the number of cells removed.
func (f *FlatGrid) DropBelow(min float64) int {
	d := f.Dim()
	w := 0
	for i, v := range f.Vals {
		if v < min {
			continue
		}
		if w != i {
			copy(f.Coords[w*d:(w+1)*d], f.Coords[i*d:(i+1)*d])
			f.Vals[w] = v
		}
		w++
	}
	removed := len(f.Vals) - w
	f.Coords = f.Coords[:w*d]
	f.Vals = f.Vals[:w]
	return removed
}

// Threshold returns a new grid keeping only cells with density ≥ min, in
// the receiver's cell order.
func (f *FlatGrid) Threshold(min float64) *FlatGrid {
	out := NewFlat(f.Size, 0)
	d := f.Dim()
	for i, v := range f.Vals {
		if v >= min {
			out.Coords = append(out.Coords, f.Coords[i*d:(i+1)*d]...)
			out.Vals = append(out.Vals, v)
		}
	}
	return out
}

// Clone returns a deep copy preserving cell order.
func (f *FlatGrid) Clone() *FlatGrid {
	return f.CloneInto(&FlatGrid{})
}

// CloneInto deep-copies f into dst, reusing dst's slice capacity, and
// returns dst — Clone for pooled grids.
func (f *FlatGrid) CloneInto(dst *FlatGrid) *FlatGrid {
	dst.Size = append(dst.Size[:0], f.Size...)
	dst.Coords = append(dst.Coords[:0], f.Coords...)
	dst.Vals = append(dst.Vals[:0], f.Vals...)
	return dst
}

// SortCanonical reorders cells into canonical order: lexicographic by
// coordinate, dimension 0 most significant.
func (f *FlatGrid) SortCanonical() {
	d := f.Dim()
	if f.Len() < 2 || d == 0 {
		return
	}
	s := getFlatScratch()
	defer putFlatScratch(s)
	passes := make([]int, 0, d)
	for p := d - 1; p >= 0; p-- {
		passes = append(passes, p)
	}
	f.Coords, f.Vals, _ = radixSortCells(f.Coords, f.Vals, nil, d, f.Size, passes, s)
}

// Find returns the index of the cell with the given coordinates, or −1.
// The grid must be in canonical order (see SortCanonical); quantization and
// the full separable transform produce canonical grids.
func (f *FlatGrid) Find(coords []uint16) int {
	d := f.Dim()
	n := f.Len()
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpCoords(f.Coords[mid*d:(mid+1)*d], coords) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && cmpCoords(f.Coords[lo*d:(lo+1)*d], coords) == 0 {
		return lo
	}
	return -1
}

// cmpCoords compares coordinate tuples in canonical (dimension-0-first
// lexicographic) order.
func cmpCoords(a, b []uint16) int {
	for j := range a {
		if a[j] != b[j] {
			if a[j] < b[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// keyByteLess orders coordinate tuples dimension by dimension, comparing
// each coordinate's low byte first and its high byte second — the order of
// the coordinates' little-endian byte strings. Component labeling numbers
// components in this order of their first cell; it matches canonical order
// while every coordinate is below 256.
func keyByteLess(a, b []uint16) bool {
	for j := range a {
		al, bl := a[j]&0xFF, b[j]&0xFF
		if al != bl {
			return al < bl
		}
		ah, bh := a[j]>>8, b[j]>>8
		if ah != bh {
			return ah < bh
		}
	}
	return false
}

// flatScratch holds the reusable buffers of the flat engine: radix-sort
// ping-pong arrays, counting-sort buckets, the transform's slab table and
// merge cursors, and one worker's transform output. Instances are pooled
// so repeated Cluster calls (and concurrent workers) do not reallocate per
// pass.
type flatScratch struct {
	coords []uint16  // radix scatter buffer (m·d)
	vals   []float64 // radix scatter buffer (m)
	idx    []int32   // radix scatter buffer for index payloads (m)
	counts []int32   // counting-sort buckets (max dimension size)
	// slabs, blocks, keys and widths are the transform's slab table, the
	// slab offset of each block, the cells' suffix keys and their field
	// widths; units are its work-unit boundaries.
	slabs  []slab
	blocks []int32
	keys   []uint64
	widths []uint8
	units  []unitPos
	// curs are one worker's slab-merge cursors.
	curs []cursor
	// outCoords/outVals collect one worker's transform output before
	// concatenation into the result grid.
	outCoords []uint16
	outVals   []float64
}

var (
	flatScratchPool = sync.Pool{New: func() any { return new(flatScratch) }}
	// flatGridPool holds the transform's grids between dimensions.
	flatGridPool = sync.Pool{New: func() any { return new(FlatGrid) }}
	// pooledOut counts scratch buffers and grids taken from the pools and
	// not yet returned, so tests can check that every path returns them.
	pooledOut atomic.Int64
)

func getFlatScratch() *flatScratch {
	pooledOut.Add(1)
	return flatScratchPool.Get().(*flatScratch)
}

func putFlatScratch(s *flatScratch) {
	pooledOut.Add(-1)
	flatScratchPool.Put(s)
}

func getFlatGrid() *FlatGrid {
	pooledOut.Add(1)
	return flatGridPool.Get().(*FlatGrid)
}

func putFlatGrid(g *FlatGrid) {
	pooledOut.Add(-1)
	flatGridPool.Put(g)
}

// growCounts returns a zeroed bucket slice of length n.
func (s *flatScratch) growCounts(n int) []int32 {
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	}
	c := s.counts[:n]
	for i := range c {
		c[i] = 0
	}
	return c
}

// radixSortCells stable-sorts cells by the given key dimensions, least
// significant pass first (LSD radix with one counting sort per pass). It
// returns the sorted coords/vals/idx slices, which may be the scratch
// buffers; the displaced buffers are retained in s for reuse. vals may be
// nil when only coordinates are being sorted, and idx is an optional int32
// payload (quantization threads point indices through the sort so each
// point's cell index falls out of the dedupe pass for free).
func radixSortCells(coords []uint16, vals []float64, idx []int32, d int, sizes []int, passes []int, s *flatScratch) ([]uint16, []float64, []int32) {
	n := len(coords) / d
	if n < 2 {
		return coords, vals, idx
	}
	if cap(s.coords) < n*d {
		s.coords = make([]uint16, n*d)
	}
	srcC, dstC := coords, s.coords[:n*d]
	var srcV, dstV []float64
	if vals != nil {
		if cap(s.vals) < n {
			s.vals = make([]float64, n)
		}
		srcV, dstV = vals, s.vals[:n]
	}
	var srcI, dstI []int32
	if idx != nil {
		if cap(s.idx) < n {
			s.idx = make([]int32, n)
		}
		srcI, dstI = idx, s.idx[:n]
	}
	for _, p := range passes {
		if sizes[p] <= 1 {
			continue
		}
		counts := s.growCounts(sizes[p])
		for i := 0; i < n; i++ {
			counts[srcC[i*d+p]]++
		}
		var sum int32
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			key := srcC[i*d+p]
			pos := int(counts[key])
			counts[key]++
			copy(dstC[pos*d:(pos+1)*d], srcC[i*d:(i+1)*d])
			if vals != nil {
				dstV[pos] = srcV[i]
			}
			if idx != nil {
				dstI[pos] = srcI[i]
			}
		}
		srcC, dstC = dstC, srcC
		srcV, dstV = dstV, srcV
		srcI, dstI = dstI, srcI
	}
	s.coords = dstC
	if vals != nil {
		s.vals = dstV
	}
	if idx != nil {
		s.idx = dstI
	}
	return srcC, srcV, srcI
}
