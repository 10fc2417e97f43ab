package grid

import (
	"errors"
	"fmt"
	"math"
)

// Quantizer maps d-dimensional points into grid cells (paper Alg. 2).
// The bounding box is padded by a tiny epsilon on the upper side so the
// maxima land in the last cell (cells are right-open intervals [l, h)).
type Quantizer struct {
	Mins, Maxs []float64
	Scale      int // M: number of cells per dimension
	inv        []float64
}

// ErrNoPoints is returned when a quantizer is requested for an empty set.
var ErrNoPoints = errors.New("grid: no points to quantize")

// checkScale validates the per-dimension cell count — shared by every
// quantizer constructor so the error wording cannot diverge between them.
func checkScale(scale int) error {
	if scale < 2 {
		return fmt.Errorf("grid: scale must be ≥ 2, got %d", scale)
	}
	if scale > 0xFFFF {
		return fmt.Errorf("grid: scale %d exceeds the 65535 cells/dimension key limit", scale)
	}
	return nil
}

// bboxShard accumulates one shard of the bounding-box scan.
type bboxShard struct {
	mins, maxs []float64
	err        error
	errAt      int
}

// init seeds the shard's extrema from its first row.
func (st *bboxShard) init(row []float64) {
	st.errAt = -1
	st.mins = append([]float64(nil), row...)
	st.maxs = append([]float64(nil), row...)
}

// scan folds row (point index i) into the shard's bounding box. It returns
// false after recording the first non-finite coordinate: a single NaN/Inf
// would silently poison the bounding box and funnel every point into one
// clamped edge cell.
func (st *bboxShard) scan(i int, row []float64) bool {
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			st.err = invalidInput(fmt.Errorf("grid: point %d has non-finite coordinate %v in dimension %d", i, v, j))
			st.errAt = i
			return false
		}
		if v < st.mins[j] {
			st.mins[j] = v
		}
		if v > st.maxs[j] {
			st.maxs[j] = v
		}
	}
	return true
}

// finishQuantizer merges the per-shard bounding boxes into a quantizer.
// Min/max merging is exact and errors are reported for the lowest offending
// point index, so the result (and any error) is identical for every shard
// layout, one included.
func finishQuantizer(states []bboxShard, scale, d int) (*Quantizer, error) {
	var firstErr error
	firstAt := -1
	for w := range states {
		st := &states[w]
		if st.err != nil && (firstAt < 0 || st.errAt < firstAt) {
			firstErr, firstAt = st.err, st.errAt
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	q := &Quantizer{Scale: scale}
	for w := range states {
		st := &states[w]
		if st.mins == nil {
			continue
		}
		if q.Mins == nil {
			q.Mins = append([]float64(nil), st.mins...)
			q.Maxs = append([]float64(nil), st.maxs...)
			continue
		}
		for j := 0; j < d; j++ {
			if st.mins[j] < q.Mins[j] {
				q.Mins[j] = st.mins[j]
			}
			if st.maxs[j] > q.Maxs[j] {
				q.Maxs[j] = st.maxs[j]
			}
		}
	}
	q.inv = make([]float64, d)
	for j := range q.inv {
		w := q.Maxs[j] - q.Mins[j]
		if w <= 0 {
			// Degenerate (constant) dimension: everything in cell 0.
			q.inv[j] = 0
			continue
		}
		q.inv[j] = float64(scale) / w
	}
	return q, nil
}

// RestoreQuantizer rebuilds a quantizer from a persisted frame — the exact
// bounds and scale a checkpointed session was quantized in. The cell-width
// inverses are derived with the same float arithmetic as finishQuantizer,
// so a restored quantizer maps every point to the same cell the original
// did, bit for bit.
func RestoreQuantizer(mins, maxs []float64, scale int) (*Quantizer, error) {
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	d := len(mins)
	if d == 0 || len(maxs) != d {
		return nil, fmt.Errorf("grid: quantizer frame with %d mins and %d maxs", d, len(maxs))
	}
	q := &Quantizer{
		Mins:  append([]float64(nil), mins...),
		Maxs:  append([]float64(nil), maxs...),
		Scale: scale,
		inv:   make([]float64, d),
	}
	for j := range q.inv {
		if math.IsNaN(mins[j]) || math.IsInf(mins[j], 0) || math.IsNaN(maxs[j]) || math.IsInf(maxs[j], 0) || mins[j] > maxs[j] {
			return nil, fmt.Errorf("grid: quantizer frame [%v, %v] invalid in dimension %d", mins[j], maxs[j], j)
		}
		w := q.Maxs[j] - q.Mins[j]
		if w <= 0 {
			// Degenerate (constant) dimension: everything in cell 0.
			q.inv[j] = 0
			continue
		}
		q.inv[j] = float64(scale) / w
	}
	return q, nil
}

// Dim returns the quantizer's dimensionality.
func (q *Quantizer) Dim() int { return len(q.Mins) }

// CellCoordsU16 writes the cell coordinates of point p into out (length
// Dim), clamped to [0, Scale−1] (the box maximum lands in the last cell).
func (q *Quantizer) CellCoordsU16(p []float64, out []uint16) []uint16 {
	for j := range q.Mins {
		c := int((p[j] - q.Mins[j]) * q.inv[j])
		if c < 0 {
			c = 0
		}
		if c >= q.Scale {
			c = q.Scale - 1
		}
		out[j] = uint16(c)
	}
	return out
}
