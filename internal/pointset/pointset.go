// Package pointset provides the flat row-major point container of the
// AdaWave hot path. The whole pipeline is dominated by per-point work —
// quantization and per-level label assignment — and a [][]float64 costs one
// heap allocation and one pointer chase per point. Dataset packs all
// coordinates into a single row-major backing slice, so sweeping n points is
// one sequential scan; Rows gives zero-copy [][]float64 views for code that
// still speaks slices, and FromSlices converts the other way (one copy).
package pointset

import (
	"fmt"
	"slices"
)

// Dataset is a flat row-major point set: point i occupies
// Data[i*D : (i+1)*D]. N is the number of points and D the dimensionality.
// The zero value is an empty dataset of dimension 0.
type Dataset struct {
	// Data holds the coordinates, row-major, N·D values.
	Data []float64
	// N is the number of points.
	N int
	// D is the dimensionality of each point.
	D int
	// box is the bounding box a mapped file records for its rows; nil for
	// every dataset not returned by Mapped.Dataset.
	box *recordedBox
}

// recordedBox is a mapped file's bounding-box trailer together with the
// payload view it was recorded for.
type recordedBox struct {
	mins, maxs []float64
	data       []float64
}

// Bounds returns copies of the per-dimension bounding box that the mapped
// file behind ds records for its rows, and whether it records one. Only
// the view Mapped.Dataset returns for a version 02 file has one; Clone,
// FromSlices and every other dataset, including a copy of the view whose
// Data or N was changed, report none. Bounds all NaN mean the writer saw
// no finite box: zero rows, or a non-finite coordinate. The values come
// from the file unchecked; the quantizer that uses them checks them
// against the rows.
func (ds *Dataset) Bounds() (mins, maxs []float64, ok bool) {
	b := ds.box
	if b == nil || len(b.mins) != ds.D || len(ds.Data) != len(b.data) || ds.N*ds.D != len(b.data) ||
		(len(b.data) > 0 && &ds.Data[0] != &b.data[0]) {
		return nil, nil, false
	}
	return slices.Clone(b.mins), slices.Clone(b.maxs), true
}

// New returns an empty dataset of dimensionality d with room for capacity
// rows (use AppendRow to fill it).
func New(d, capacity int) *Dataset {
	if d < 0 {
		panic(fmt.Sprintf("pointset: negative dimension %d", d))
	}
	return &Dataset{Data: make([]float64, 0, capacity*d), D: d}
}

// FromSlices copies points into a freshly allocated flat dataset. All rows
// must share the same length; a ragged input is reported as an error (the
// flat layout cannot represent it).
func FromSlices(points [][]float64) (*Dataset, error) {
	if len(points) == 0 {
		return &Dataset{}, nil
	}
	d := len(points[0])
	ds := &Dataset{Data: make([]float64, 0, len(points)*d), D: d}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("pointset: inconsistent dimensions %d and %d (row %d)", d, len(p), i)
		}
		ds.Data = append(ds.Data, p...)
	}
	ds.N = len(points)
	return ds, nil
}

// MustFromSlices is FromSlices for inputs known to be rectangular; it panics
// on ragged rows.
func MustFromSlices(points [][]float64) *Dataset {
	ds, err := FromSlices(points)
	if err != nil {
		panic(err)
	}
	return ds
}

// Row returns point i as a view into the backing slice (no copy; mutating
// the returned slice mutates the dataset).
func (ds *Dataset) Row(i int) []float64 {
	return ds.Data[i*ds.D : (i+1)*ds.D : (i+1)*ds.D]
}

// AppendRow appends one point. The row length must equal D (a dataset
// created with dimension 0 adopts the first row's length).
func (ds *Dataset) AppendRow(row []float64) {
	if ds.N == 0 && ds.D == 0 {
		ds.D = len(row)
	}
	if len(row) != ds.D {
		panic(fmt.Sprintf("pointset: appending row of dimension %d to %d-dimensional dataset", len(row), ds.D))
	}
	ds.Data = append(ds.Data, row...)
	ds.N++
}

// Rows returns the dataset as [][]float64 without copying coordinates: each
// row is a view into the flat backing slice. The row headers themselves are
// one allocation.
func (ds *Dataset) Rows() [][]float64 {
	out := make([][]float64, ds.N)
	for i := range out {
		out[i] = ds.Row(i)
	}
	return out
}

// Clone returns a deep copy.
func (ds *Dataset) Clone() *Dataset {
	return &Dataset{Data: append([]float64(nil), ds.Data...), N: ds.N, D: ds.D}
}
