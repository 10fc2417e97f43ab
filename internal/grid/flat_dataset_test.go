package grid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adawave/internal/pointset"
)

func randomDataset(n, d int, seed int64) ([][]float64, *pointset.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		points[i] = p
	}
	return points, pointset.MustFromSlices(points)
}

// quantizeDataset is QuantizeDatasetCtx without a deadline, failing t on
// error.
func quantizeDataset(t testing.TB, q *Quantizer, ds *pointset.Dataset, workers int) (*FlatGrid, []int32) {
	t.Helper()
	f, ids, err := q.QuantizeDatasetCtx(context.Background(), ds, workers)
	if err != nil {
		t.Fatal(err)
	}
	return f, ids
}

// TestNewQuantizerDatasetMatchesSlices: the strided bounding-box scan must
// find the rows' exact bounding box at every worker count.
func TestNewQuantizerDatasetMatchesSlices(t *testing.T) {
	points, ds := randomDataset(5000, 3, 1)
	mins := append([]float64(nil), points[0]...)
	maxs := append([]float64(nil), points[0]...)
	for _, p := range points {
		for j, v := range p {
			mins[j], maxs[j] = min(mins[j], v), max(maxs[j], v)
		}
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := NewQuantizerDatasetCtx(context.Background(), ds, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if got.Mins[j] != mins[j] || got.Maxs[j] != maxs[j] {
				t.Fatalf("workers=%d dim %d: bbox (%v,%v) want (%v,%v)",
					workers, j, got.Mins[j], got.Maxs[j], mins[j], maxs[j])
			}
		}
	}
}

// TestNewQuantizerDatasetErrors covers the constructor's validation.
func TestNewQuantizerDatasetErrors(t *testing.T) {
	_, ds := randomDataset(10, 2, 2)
	if _, err := NewQuantizerDatasetCtx(context.Background(), nil, 8, 1); err == nil {
		t.Fatal("nil dataset must error")
	}
	if _, err := NewQuantizerDatasetCtx(context.Background(), &pointset.Dataset{}, 8, 1); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, err := NewQuantizerDatasetCtx(context.Background(), ds, 1, 1); err == nil {
		t.Fatal("scale 1 must error")
	}
	bad := ds.Clone()
	bad.Data[7] = math.NaN()
	for _, workers := range []int{1, 4} {
		if _, err := NewQuantizerDatasetCtx(context.Background(), bad, 8, workers); err == nil {
			t.Fatalf("workers=%d: NaN coordinate must error", workers)
		}
	}
	// The block scan must name the lowest offending point, its dimension
	// and its value wherever the flagged blocks fall: rows in the first and
	// second ctxCheckStride block, several per dataset, NaN and both
	// infinities.
	_, big := randomDataset(ctxCheckStride+5000, 2, 7)
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for ci, rows := range [][]int{{1}, {ctxCheckStride + 9, ctxCheckStride + 1}, {ctxCheckStride + 3, 4000}} {
		bad := big.Clone()
		first := -1
		for k, i := range rows {
			bad.Data[i*2+k%2] = nonFinite[(ci+k)%3]
			if first < 0 || i < rows[first] {
				first = k
			}
		}
		i, j := rows[first], first%2
		want := fmt.Sprintf("grid: point %d has non-finite coordinate %v in dimension %d", i, bad.Data[i*2+j], j)
		for _, workers := range []int{1, 2, 3} {
			if _, err := NewQuantizerDatasetCtx(context.Background(), bad, 8, workers); err == nil || err.Error() != want {
				t.Fatalf("non-finite rows %v, workers=%d: got %v, want %v", rows, workers, err, want)
			}
		}
	}
}

// TestAncestorLabels checks the per-level table against the definition: the
// label of the kept cell whose coordinates are the base cell's shifted by
// the level, −1 when absent or demoted.
func TestAncestorLabels(t *testing.T) {
	_, ds := randomDataset(4000, 2, 4)
	q, err := NewQuantizerDatasetCtx(context.Background(), ds, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := quantizeDataset(t, q, ds, 1)
	for _, levels := range []int{0, 1, 2} {
		// A synthetic kept grid: every other ancestor of the base cells.
		shift := uint(levels)
		anc := NewFlat([]int{64 >> shift, 64 >> shift}, 0)
		seen := map[[2]uint16]bool{}
		coords := make([]uint16, 2)
		for c := 0; c < base.Len(); c++ {
			bc := base.CellCoords(c)
			coords[0], coords[1] = bc[0]>>shift, bc[1]>>shift
			k := [2]uint16{coords[0], coords[1]}
			if !seen[k] {
				seen[k] = true
				anc.Append(coords, 1)
			}
		}
		anc.SortCanonical()
		kept := NewFlat(anc.Size, 0)
		keptLabels := make([]int32, 0)
		for i := 0; i < anc.Len(); i += 2 {
			kept.Append(anc.CellCoords(i), anc.Vals[i])
			label := int32(len(keptLabels) % 3)
			if label == 2 {
				label = -1 // demoted component
			}
			keptLabels = append(keptLabels, label)
		}
		for _, workers := range []int{1, 4} {
			table, err := base.AncestorLabelsCtx(context.Background(), nil, kept, levels, keptLabels, workers)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < base.Len(); c++ {
				bc := base.CellCoords(c)
				coords[0], coords[1] = bc[0]>>shift, bc[1]>>shift
				want := int32(-1)
				if j := kept.Find(coords); j >= 0 && keptLabels[j] >= 0 {
					want = keptLabels[j]
				}
				if table[c] != want {
					t.Fatalf("levels=%d workers=%d cell %d: got %d, want %d",
						levels, workers, c, table[c], want)
				}
			}
		}
	}
}

// TestSortedDensitiesInto: the pooled form must equal SortedDensities and
// reuse the buffer's capacity.
func TestSortedDensitiesInto(t *testing.T) {
	_, ds := randomDataset(3000, 2, 5)
	q, err := NewQuantizerDatasetCtx(context.Background(), ds, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := quantizeDataset(t, q, ds, 1)
	want := f.SortedDensities()
	buf := make([]float64, 0, f.Len())
	got := f.SortedDensitiesInto(buf)
	if len(got) != len(want) {
		t.Fatalf("length: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("curve[%d]: got %v, want %v", i, got[i], want[i])
		}
	}
	if f.Len() > 0 && &got[0] != &buf[:1][0] {
		t.Fatal("SortedDensitiesInto must reuse the buffer's capacity")
	}
}

// TestCloneInto: deep copy that reuses destination capacity.
func TestCloneInto(t *testing.T) {
	_, ds := randomDataset(1000, 2, 6)
	q, err := NewQuantizerDatasetCtx(context.Background(), ds, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := quantizeDataset(t, q, ds, 1)
	dst := &FlatGrid{}
	got := f.CloneInto(dst)
	if got != dst {
		t.Fatal("CloneInto must return its destination")
	}
	if got.Len() != f.Len() {
		t.Fatalf("cells: got %d, want %d", got.Len(), f.Len())
	}
	got.Vals[0] = -42
	if f.Vals[0] == -42 {
		t.Fatal("CloneInto must not share backing storage")
	}
	// Cloning a smaller grid into the same destination reuses capacity.
	small := NewFlat(f.Size, 1)
	small.Append(f.CellCoords(0), 7)
	prev := &got.Vals[:1][0]
	got = small.CloneInto(dst)
	if got.Len() != 1 || &got.Vals[0] != prev {
		t.Fatal("CloneInto must reuse the destination's backing array")
	}
}
