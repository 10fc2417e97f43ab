package grid

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// writeMappedFile writes ds as a mapped-Dataset file in a fresh temp
// directory and returns its path.
func writeMappedFile(t testing.TB, ds *pointset.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.awds")
	w, err := pointset.CreateMapped(path, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N; i++ {
		if err := w.AppendRow(ds.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMappedFile opens the mapped file at path for the rest of the test.
func openMappedFile(t testing.TB, path string) *pointset.Dataset {
	t.Helper()
	m, err := pointset.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m.Dataset()
}

// boundedView returns a mapped view of ds's rows that records its bounds.
func boundedView(t testing.TB, ds *pointset.Dataset) *pointset.Dataset {
	t.Helper()
	view := openMappedFile(t, writeMappedFile(t, ds))
	if _, _, ok := view.Bounds(); !ok {
		t.Fatal("mapped view records no bounds")
	}
	return view
}

// rewriteTrailer overwrites the bounding-box trailer of the mapped file at
// path, which holds n rows of d coordinates.
func rewriteTrailer(t *testing.T, path string, n, d int, mins, maxs []float64) {
	t.Helper()
	raw := make([]byte, 16*d)
	for j := 0; j < d; j++ {
		binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(mins[j]))
		binary.LittleEndian.PutUint64(raw[8*(d+j):], math.Float64bits(maxs[j]))
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(raw, int64(32+8*n*d)); err != nil {
		t.Fatal(err)
	}
}

// TestRecordedBoundsMatchScan checks that the bounds a mapped file records
// are bit for bit the bounds the scan computes, and that the quantizer
// built from them grids the rows exactly as the scan's does: on the Fig. 2
// and Fig. 7 datasets, a single row, a constant dimension, and rows mixing
// −0 and +0 in either order.
func TestRecordedBoundsMatchScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		ds   *pointset.Dataset
	}{
		{"fig2", synth.RunningExampleSized(320, 1).Flat()},
		{"fig7", synth.Evaluation(1000, 0.5, 1).Flat()},
		{"single-row", pointset.MustFromSlices([][]float64{{3.5, -2}})},
		{"constant-dim", pointset.MustFromSlices([][]float64{{1, 7}, {2, 7}, {0.5, 7}})},
		{"zeros+-", pointset.MustFromSlices([][]float64{{0, 1}, {negZero, negZero}, {1, 0}, {negZero, 2}})},
		{"zeros-+", pointset.MustFromSlices([][]float64{{negZero, 1}, {0, 0}, {1, negZero}, {0, 2}})},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			view := boundedView(t, c.ds)
			mins, maxs, _ := view.Bounds()
			scan, err := NewQuantizerDatasetCtx(ctx, c.ds, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			for j := range mins {
				if math.Float64bits(mins[j]) != math.Float64bits(scan.Mins[j]) ||
					math.Float64bits(maxs[j]) != math.Float64bits(scan.Maxs[j]) {
					t.Fatalf("dim %d: recorded [%v, %v], scan [%v, %v]", j, mins[j], maxs[j], scan.Mins[j], scan.Maxs[j])
				}
			}
			q, err := NewQuantizerDatasetCtx(ctx, view, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !q.recorded || !slices.Equal(q.inv, scan.inv) {
				t.Fatalf("recorded quantizer %v, inverses %v; scan's %v", q.recorded, q.inv, scan.inv)
			}
			want, wantIDs := quantizeDataset(t, scan, c.ds, 1)
			got, ids := quantizeDataset(t, q, view, 1)
			if !flatBitsEqual(got, want) || !slices.Equal(ids, wantIDs) {
				t.Fatal("recorded quantizer grids the rows differently from the scan's")
			}
		})
	}
}

// quantizeRoutes runs q over ds on each of the four quantize routes and
// returns each route's error, keyed by route. Every route must publish no
// grid and no ids when it fails.
func quantizeRoutes(t *testing.T, q *Quantizer, ds *pointset.Dataset) map[string]error {
	t.Helper()
	ctx := context.Background()
	const workers = 2
	if _, dense := denseCall(q.Scale, ds.D, ds.N, workers, ds.N); !dense {
		t.Fatalf("scale %d is not dense over %d rows", q.Scale, ds.N)
	}
	radix := newQuantizer(slices.Clone(q.Mins), slices.Clone(q.Maxs), 1024)
	radix.recorded = q.recorded
	errs := map[string]error{}
	for _, r := range []struct {
		name string
		q    *Quantizer
		ext  *ExtSortOptions
	}{
		{"in-RAM dense", q, nil},
		{"in-RAM radix", radix, nil},
		{"external dense", q, &ExtSortOptions{ChunkPoints: ds.N}},
		{"external radix", radix, &ExtSortOptions{ChunkPoints: max(300, ds.N/4), SpillBytes: 1, TempDir: t.TempDir()}},
	} {
		var (
			cells bool
			ids   []int32
			err   error
		)
		if r.ext == nil {
			var f *FlatGrid
			f, ids, err = r.q.QuantizeDatasetCtx(ctx, ds, workers)
			cells = f != nil
		} else {
			var p *PackedGrid
			p, ids, err = r.q.QuantizeDatasetExternalPackedCtx(ctx, ds, workers, *r.ext)
			cells = p != nil
		}
		if err != nil && (cells || ids != nil) {
			t.Fatalf("%s: failed with %v but published a grid or ids", r.name, err)
		}
		errs[r.name] = err
	}
	return errs
}

// TestRecordedBoundsChecked damages the trailer of a mapped file and
// expects every quantize route to refuse the rows with an
// ErrCorruptDataset-tagged error: bounds too wide or too narrow on either
// side, and a −0 bound where the rows' first zero is +0. NaN and swapped
// bounds are no finite ordered box, so the quantizer that every route
// starts from is refused with the same error. The undamaged file
// quantizes on every route.
func TestRecordedBoundsChecked(t *testing.T) {
	ds := clusteredDataset(2000, 2, 5)
	ds.Row(17)[1] = 0 // the rows' first zero in dimension 1 is +0
	for i := 0; i < ds.N; i++ {
		ds.Row(i)[1] = max(ds.Row(i)[1], 0)
	}
	scan, err := NewQuantizerDatasetCtx(context.Background(), ds, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Mins[1] != 0 || math.Signbit(scan.Mins[1]) {
		t.Fatalf("dimension 1 minimum %v, want +0", scan.Mins[1])
	}
	lo, hi := scan.Mins, scan.Maxs
	nan := math.NaN()
	with := func(b []float64, j int, v float64) []float64 {
		b = slices.Clone(b)
		b[j] = v
		return b
	}
	for _, c := range []struct {
		name       string
		mins, maxs []float64
	}{
		{"intact", lo, hi},
		{"wide-min", with(lo, 0, lo[0]-1), hi},
		{"wide-max", lo, with(hi, 1, hi[1]+1e-9)},
		{"narrow-min", with(lo, 0, math.Nextafter(lo[0], 1)), hi},
		{"narrow-max", lo, with(hi, 0, hi[0]-1)},
		{"nan", []float64{nan, nan}, []float64{nan, nan}},
		{"nan-one-dim", with(lo, 1, nan), hi},
		{"swapped", hi, lo},
		{"negative-zero", with(lo, 1, math.Copysign(0, -1)), hi},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := writeMappedFile(t, ds)
			rewriteTrailer(t, path, ds.N, ds.D, c.mins, c.maxs)
			view := openMappedFile(t, path)
			q, err := NewQuantizerDatasetCtx(context.Background(), view, 16, 2)
			if err != nil {
				if c.name == "intact" || !errors.Is(err, pointset.ErrCorruptDataset) || q != nil {
					t.Fatalf("quantizer: %v, %v", q != nil, err)
				}
				return
			}
			for route, err := range quantizeRoutes(t, q, view) {
				if c.name == "intact" {
					if err != nil {
						t.Errorf("%s: %v", route, err)
					}
					continue
				}
				if !errors.Is(err, pointset.ErrCorruptDataset) || errors.Is(err, ErrInvalidInput) {
					t.Errorf("%s: got %v, want ErrCorruptDataset", route, err)
				}
			}
		})
	}
}

// TestRecordedBoundsLoneEdgeValues places each value at a bound alone in
// its block of rows, every other value strictly inside the box, so each
// block the kernels read holds at most one value that takes cellOf's slow
// path. Every route must check those blocks and accept the intact file;
// a pass that skipped one would miss that the row attains its bound.
func TestRecordedBoundsLoneEdgeValues(t *testing.T) {
	n := 3 * ctxCheckStride
	ds := pointset.New(2, n)
	for i := 0; i < n; i++ {
		ds.AppendRow([]float64{1 + float64(i%97)*0.08, 1 + float64(i%89)*0.09})
	}
	ds.Row(5)[0] = 0                    // block 0: the minimum of dimension 0
	ds.Row(ctxCheckStride + 7)[0] = 10  // block 1: its maximum
	ds.Row(2*ctxCheckStride + 3)[1] = 0 // block 2: dimension 1's bounds
	ds.Row(n - 1)[1] = 10
	view := boundedView(t, ds)
	q, err := NewQuantizerDatasetCtx(context.Background(), view, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := []float64{q.Mins[0], q.Maxs[0], q.Mins[1], q.Maxs[1]}; !slices.Equal(got, []float64{0, 10, 0, 10}) {
		t.Fatalf("recorded bounds %v", got)
	}
	for route, err := range quantizeRoutes(t, q, view) {
		if err != nil {
			t.Errorf("%s: %v", route, err)
		}
	}
}

// TestRecordedBoundsNonFinite checks that a mapped file with a non-finite
// row fails with the scan's error, naming the same lowest row: whether
// its writer recorded no bounds (an all-NaN trailer) or the trailer was
// rewritten to finite bounds that every route then checks.
func TestRecordedBoundsNonFinite(t *testing.T) {
	ds := clusteredDataset(2000, 2, 6)
	scan, err := NewQuantizerDatasetCtx(context.Background(), ds, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds.Row(1500)[0] = math.Inf(1)
	ds.Row(1200)[1] = math.NaN()
	_, want := NewQuantizerDatasetCtx(context.Background(), ds, 16, 2)
	if want == nil || !strings.Contains(want.Error(), "point 1200") {
		t.Fatalf("scan error %v does not name point 1200", want)
	}
	path := writeMappedFile(t, ds)
	view := openMappedFile(t, path)
	if mins, maxs, _ := view.Bounds(); !math.IsNaN(mins[0]) || !math.IsNaN(maxs[1]) {
		t.Fatalf("writer recorded bounds %v, %v over a non-finite row", mins, maxs)
	}
	if _, err := NewQuantizerDatasetCtx(context.Background(), view, 16, 2); err == nil || err.Error() != want.Error() {
		t.Fatalf("NaN trailer: got %v, want %v", err, want)
	}

	rewriteTrailer(t, path, ds.N, ds.D, scan.Mins, scan.Maxs)
	view = openMappedFile(t, path)
	q, err := NewQuantizerDatasetCtx(context.Background(), view, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for route, err := range quantizeRoutes(t, q, view) {
		if err == nil || err.Error() != want.Error() || !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: got %v, want %v", route, err, want)
		}
	}
}
