// Package oracle is the sequential, map-based reference implementation of
// AdaWave that every production path is checked against, bit for bit. It
// is test-only: no binary links it (the CI build job and `make build` fail
// if a command depends on it). Each pipeline step has one entry — Quantize,
// TransformLevels, Components and, end to end, Cluster — written for
// clarity rather than speed: cells live in a Go map keyed by their packed
// coordinates, the transform scatters cell by cell, and components are a
// breadth-first search. Every sum walks the cells in canonical coordinate
// order, the order the production kernels keep, so the oracle is
// deterministic for every basis, the irrational DB4/DB6 taps included.
package oracle

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"adawave/internal/grid"
)

// Key identifies a cell by its integer coordinates, packed little-endian as
// one uint16 per dimension.
type Key string

// MakeKey packs coords into a Key. Coordinates must be in [0, 65535].
func MakeKey(coords []int) Key {
	buf := make([]byte, 2*len(coords))
	for j, c := range coords {
		if c < 0 || c > 0xFFFF {
			panic(fmt.Sprintf("oracle: coordinate %d out of range [0,65535]", c))
		}
		putCoord(buf, j, c)
	}
	return Key(buf)
}

// CellKey returns the Key of cell i of a flat grid.
func CellKey(f *grid.FlatGrid, i int) Key {
	buf := make([]byte, 2*f.Dim())
	for j, c := range f.CellCoords(i) {
		putCoord(buf, j, int(c))
	}
	return Key(buf)
}

// Dim returns the number of dimensions encoded in the key.
func (k Key) Dim() int { return len(k) / 2 }

// Coord returns the coordinate of dimension j.
func (k Key) Coord(j int) int {
	return int(k[2*j]) | int(k[2*j+1])<<8
}

// Coords decodes all coordinates.
func (k Key) Coords() []int {
	out := make([]int, k.Dim())
	for j := range out {
		out[j] = k.Coord(j)
	}
	return out
}

// With returns a copy of the key with dimension j replaced by c.
func (k Key) With(j, c int) Key {
	coords := k.Coords()
	coords[j] = c
	return MakeKey(coords)
}

// putCoord stamps coordinate c into dimension j of a packed key buffer.
func putCoord(buf []byte, j, c int) {
	buf[2*j] = byte(c)
	buf[2*j+1] = byte(c >> 8)
}

// Grid is a sparse d-dimensional grid of cell densities: only occupied
// cells are stored.
type Grid struct {
	// Size is the number of cells along each dimension.
	Size []int
	// Cells maps occupied cells to their density.
	Cells map[Key]float64
}

// New returns an empty grid with the given per-dimension sizes.
func New(size []int) *Grid {
	return &Grid{Size: append([]int(nil), size...), Cells: make(map[Key]float64)}
}

// Dim returns the dimensionality of the grid.
func (g *Grid) Dim() int { return len(g.Size) }

// Len returns the number of occupied cells.
func (g *Grid) Len() int { return len(g.Cells) }

// Add accumulates w into the cell at key.
func (g *Grid) Add(key Key, w float64) { g.Cells[key] += w }

// Density returns the density of the cell (0 when unoccupied).
func (g *Grid) Density(key Key) float64 { return g.Cells[key] }

// TotalMass returns the sum of all cell densities, in canonical order.
func (g *Grid) TotalMass() float64 {
	var s float64
	for _, k := range g.canonicalKeys() {
		s += g.Cells[k]
	}
	return s
}

// SortedDensities returns all cell densities in descending order.
func (g *Grid) SortedDensities() []float64 {
	out := make([]float64, 0, len(g.Cells))
	for _, v := range g.Cells {
		out = append(out, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Threshold returns a new grid keeping only cells with density ≥ min.
func (g *Grid) Threshold(min float64) *Grid {
	out := New(g.Size)
	for k, v := range g.Cells {
		if v >= min {
			out.Cells[k] = v
		}
	}
	return out
}

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	return &Grid{Size: append([]int(nil), g.Size...), Cells: maps.Clone(g.Cells)}
}

// DropBelow removes cells with density < min in place and returns the
// number removed.
func (g *Grid) DropBelow(min float64) int {
	removed := 0
	for k, v := range g.Cells {
		if v < min {
			delete(g.Cells, k)
			removed++
		}
	}
	return removed
}

// SortedKeys returns the occupied keys in Key byte order: per dimension,
// the coordinate's low byte, then its high byte. Components numbers
// components in this order.
func (g *Grid) SortedKeys() []Key {
	keys := g.keys()
	slices.Sort(keys)
	return keys
}

// canonicalKeys returns the occupied keys in canonical order: ascending
// coordinates, dimension 0 most significant (per dimension, the high byte
// before the low one). It differs from SortedKeys once a coordinate
// reaches 256.
func (g *Grid) canonicalKeys() []Key {
	keys := g.keys()
	slices.SortFunc(keys, func(a, b Key) int {
		for i := 0; i < len(a); i += 2 {
			if a[i+1] != b[i+1] {
				return int(a[i+1]) - int(b[i+1])
			}
			if a[i] != b[i] {
				return int(a[i]) - int(b[i])
			}
		}
		return 0
	})
	return keys
}

// keys returns the occupied keys in map order.
func (g *Grid) keys() []Key {
	keys := make([]Key, 0, len(g.Cells))
	for k := range g.Cells {
		keys = append(keys, k)
	}
	return keys
}

// ToGrid converts a flat grid to the map representation.
func ToGrid(f *grid.FlatGrid) *Grid {
	g := New(f.Size)
	for i, v := range f.Vals {
		g.Cells[CellKey(f, i)] = v
	}
	return g
}

// FlatFromGrid converts a map grid to a flat grid in canonical order.
func FlatFromGrid(g *Grid) *grid.FlatGrid {
	f := grid.NewFlat(g.Size, g.Len())
	coords := make([]uint16, g.Dim())
	for k, v := range g.Cells {
		for j := range coords {
			coords[j] = uint16(k.Coord(j))
		}
		f.Append(coords, v)
	}
	f.SortCanonical()
	return f
}
