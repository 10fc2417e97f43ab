package grid

import (
	"errors"
	"fmt"
	"math"
)

// Quantizer maps d-dimensional points into grid cells (paper Alg. 2).
// Cells are right-open intervals [l, h) of width (max−min)/Scale, and the
// maxima are clamped into the last cell.
type Quantizer struct {
	Mins, Maxs []float64
	Scale      int // M: number of cells per dimension
	inv        []float64
	// limit is the least scaled offset (v−min)·inv that a box maximum
	// reaches in any dimension, capped at Scale: cellOf's fast-path bound.
	limit float64
	// recorded marks a quantizer built from the bounds a dataset records
	// instead of a scan of its rows. Every quantize pass with it checks,
	// in the pass that computes cells, that the rows attain exactly those
	// bounds (boxCheck), and fails the call when they do not.
	recorded bool
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
	var mins, maxs []float64
	for w := range states {
		st := &states[w]
		if st.mins == nil {
			continue
		}
		if mins == nil {
			mins = append([]float64(nil), st.mins...)
			maxs = append([]float64(nil), st.maxs...)
			continue
		}
		for j := 0; j < d; j++ {
			if st.mins[j] < mins[j] {
				mins[j] = st.mins[j]
			}
			if st.maxs[j] > maxs[j] {
				maxs[j] = st.maxs[j]
			}
		}
	}
	return newQuantizer(mins, maxs, scale), nil
}

// newQuantizer builds the quantizer of the box [mins, maxs] at scale,
// taking ownership of both slices: the cell width inverse of every
// dimension is Scale/(max−min), and 0 for a degenerate (constant)
// dimension, which puts everything in cell 0. Every constructor derives
// the inverses here, so equal bounds give equal cells bit for bit.
func newQuantizer(mins, maxs []float64, scale int) *Quantizer {
	q := &Quantizer{Mins: mins, Maxs: maxs, Scale: scale, inv: make([]float64, len(mins)), limit: float64(scale)}
	for j := range q.inv {
		if w := maxs[j] - mins[j]; w > 0 {
			q.inv[j] = float64(scale) / w
			// The offset cellOf computes for the maximum itself.
			q.limit = min(q.limit, (maxs[j]-mins[j])*q.inv[j])
		}
	}
	return q
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
	for j := range mins {
		if !finiteBox(mins[j], maxs[j]) {
			return nil, fmt.Errorf("grid: quantizer frame [%v, %v] invalid in dimension %d", mins[j], maxs[j], j)
		}
	}
	return newQuantizer(append([]float64(nil), mins...), append([]float64(nil), maxs...), scale), nil
}

// finiteBox reports whether [lo, hi] is a finite, ordered interval.
func finiteBox(lo, hi float64) bool {
	return !math.IsNaN(lo) && !math.IsInf(lo, 0) && !math.IsNaN(hi) && !math.IsInf(hi, 0) && lo <= hi
}

// Dim returns the quantizer's dimensionality.
func (q *Quantizer) Dim() int { return len(q.Mins) }

// CellCoordsU16 writes the cell coordinates of point p into out (length
// Dim), clamped to [0, Scale−1] (the box maximum lands in the last cell).
// It computes each coordinate with cellOf, as every quantize kernel does,
// but checks no recorded bounds.
func (q *Quantizer) CellCoordsU16(p []float64, out []uint16) []uint16 {
	for j := range q.Mins {
		c, _ := cellOf(p[j], q.Mins[j], q.inv[j], q.limit, q.Scale)
		out[j] = uint16(c)
	}
	return out
}

// cellOf is the one cell function of the package: the cell of coordinate
// v in a dimension whose box starts at lo with cell width 1/inv is
// int((v−lo)·inv) clamped to [0, scale−1]. Its fast path takes an offset
// x = (v−lo)·inv with 0 < x < limit, whose cell needs no clamp, and it
// reports whether it took it. The arithmetic is monotone, so every value
// on the fast path is finite and strictly inside its box, while every
// value at or beyond a bound, every NaN and ±Inf, and every value of a
// constant dimension (inv 0) takes the slow path. The quantize kernels
// count slow-path values, so a check of recorded bounds (boxCheck) reads
// only the blocks of rows where some value took it.
func cellOf(v, lo, inv, limit float64, scale int) (int, bool) {
	x := (v - lo) * inv
	c := int(x)
	if x > 0 && x < limit {
		return c, true
	}
	return max(0, min(c, scale-1)), false
}
