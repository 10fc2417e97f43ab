package grid

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"adawave/internal/pointset"
)

// clusteredDataset builds a clustered-plus-noise dataset that occupies many
// cells with duplicate hits, exercising dedupe and cross-run merging.
func clusteredDataset(n, d int, seed int64) *pointset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := pointset.New(d, n)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 { // uniform background
			for j := range row {
				row[j] = rng.Float64() * 100
			}
		} else { // one of 8 tight blobs
			c := float64(rng.Intn(8)) * 12
			for j := range row {
				row[j] = c + rng.NormFloat64()*2
			}
		}
		ds.AppendRow(row)
	}
	return ds
}

// sameGrid fails the test unless a and b are bit-identical flat grids.
func sameGrid(t *testing.T, a, b *FlatGrid, label string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d cells vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatalf("%s: coords diverge at %d", label, i)
		}
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			t.Fatalf("%s: cell %d mass %v vs %v", label, i, a.Vals[i], b.Vals[i])
		}
	}
}

// TestQuantizeDatasetExternalEquivalence sweeps chunk sizes and spill
// thresholds (including "spill everything") and checks the external sort
// reproduces QuantizeDatasetCtx's grid and point→cell memo bit for bit,
// at several worker counts, leaving no spill files behind. The fine 3-D
// scale-64 grid is larger than any chunk, so it is radix-sorted into runs
// that spill and merge; a coarse grid whose count tables fit within a
// chunk takes the dense route, which makes no run and no spill directory.
func TestQuantizeDatasetExternalEquivalence(t *testing.T) {
	ds := clusteredDataset(20000, 3, 42)
	q, err := NewQuantizerDatasetCtx(context.Background(), ds, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantGrid, wantIDs, err := q.QuantizeDatasetCtx(context.Background(), ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	// check runs the flat and the packed external call with spill files
	// under tmp, which must be empty (or still absent) afterwards.
	check := func(q *Quantizer, wantGrid *FlatGrid, wantIDs []int32, chunk int, spill int64, workers int, tmp string) {
		t.Helper()
		g, ids, err := q.QuantizeDatasetExternalCtx(context.Background(), ds, workers,
			ExtSortOptions{ChunkPoints: chunk, SpillBytes: spill, TempDir: tmp})
		if err != nil {
			t.Fatalf("chunk=%d spill=%d workers=%d: %v", chunk, spill, workers, err)
		}
		sameGrid(t, wantGrid, g, "grid")
		for i := range wantIDs {
			if ids[i] != wantIDs[i] {
				t.Fatalf("chunk=%d spill=%d workers=%d: ids[%d] = %d, want %d",
					chunk, spill, workers, i, ids[i], wantIDs[i])
			}
		}
		// The packed quantizer behind that flat wrapper must agree bit for
		// bit after unpacking.
		pg, pids, err := q.QuantizeDatasetExternalPackedCtx(context.Background(), ds, workers,
			ExtSortOptions{ChunkPoints: chunk, SpillBytes: spill, TempDir: tmp})
		if err != nil {
			t.Fatalf("packed chunk=%d spill=%d workers=%d: %v", chunk, spill, workers, err)
		}
		sameGrid(t, wantGrid, pg.Unpack(), "packed grid")
		for i := range wantIDs {
			if pids[i] != wantIDs[i] {
				t.Fatalf("packed chunk=%d spill=%d workers=%d: ids[%d] = %d, want %d",
					chunk, spill, workers, i, pids[i], wantIDs[i])
			}
		}
		// Spill hygiene: every temp file and the spill dir itself must be
		// gone after the call.
		entries, err := os.ReadDir(tmp)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("chunk=%d spill=%d: %d leaked entries in spill base dir", chunk, spill, len(entries))
		}
	}

	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 12; iter++ {
		chunk := 1 + rng.Intn(ds.N+1000)
		spill := int64(1) // force everything to disk
		if iter%3 == 1 {
			spill = 1 << 16 // mixed retain/spill
		} else if iter%3 == 2 {
			spill = 1 << 30 // all in memory
		}
		workers := 1 + rng.Intn(4)
		if _, ok := denseCall(q.Scale, q.Dim(), ds.N, quantizeWorkers(ds.N, workers), min(chunk, ds.N)); ok {
			t.Fatalf("chunk=%d workers=%d: the fine grid must be radix-sorted", chunk, workers)
		}
		check(q, wantGrid, wantIDs, chunk, spill, workers, t.TempDir())
	}
	// At SpillBytes 1 the fine grid writes its first run to a spill
	// directory, so a base directory that does not exist fails the call.
	absent := filepath.Join(t.TempDir(), "absent")
	if _, _, err := q.QuantizeDatasetExternalPackedCtx(context.Background(), ds, 2,
		ExtSortOptions{ChunkPoints: 5000, SpillBytes: 1, TempDir: absent}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("radix call under a missing spill base dir: err %v, want fs.ErrNotExist", err)
	}

	// Scale 16 in 3-D is 4096 cells. One table over 20000 rows fits a chunk
	// of 6000 rows, and two tables over 10000-row shards fit a chunk of
	// 9000, so these calls count densely. They create no spill directory
	// even at SpillBytes 1: the base directory does not exist, so any
	// os.MkdirTemp would fail the call.
	coarse, err := NewQuantizerDatasetCtx(context.Background(), ds, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	coarseGrid, coarseIDs, err := coarse.QuantizeDatasetCtx(context.Background(), ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		chunk, workers int
		spill          int64
	}{{6000, 1, 1}, {6000, 1, 1 << 30}, {9000, 2, 1}, {9000, 2, 1 << 30}} {
		if _, ok := denseCall(coarse.Scale, coarse.Dim(), ds.N, c.workers, c.chunk); !ok {
			t.Fatalf("chunk=%d workers=%d: the coarse grid must take the dense route", c.chunk, c.workers)
		}
		check(coarse, coarseGrid, coarseIDs, c.chunk, c.spill, c.workers, absent)
	}
}

// TestQuantizeDatasetExternalCancel cancels the external sort after each
// number of ctx polls in turn, until one call completes, on both routes:
// radix runs spilled and merged, and the dense count. Every cancelled call
// must unwind with the taxonomy error, publish no grid and no memo, and
// remove its spill directory; the completed call must equal the in-RAM
// quantize. It runs over the rows in RAM and over a mapped file of them
// that records their bounds, which both routes check.
func TestQuantizeDatasetExternalCancel(t *testing.T) {
	rows := clusteredDataset(50000, 2, 7)
	opts := ExtSortOptions{ChunkPoints: 1024, SpillBytes: 1}
	const workers = 2
	for _, c := range []struct {
		name  string
		ds    *pointset.Dataset
		scale int
		dense bool
	}{
		{"radix", rows, 128, false}, {"dense", rows, 16, true},
		{"mapped/radix", boundedView(t, rows), 128, false}, {"mapped/dense", boundedView(t, rows), 16, true},
	} {
		ds := c.ds
		q, err := NewQuantizerDatasetCtx(context.Background(), ds, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := denseCall(q.Scale, q.Dim(), ds.N, workers, opts.ChunkPoints); ok != c.dense {
			t.Fatalf("%s: dense call %v", c.name, ok)
		}
		want, wantIDs := quantizeDataset(t, q, ds, workers)
		for n := 0; ; n++ {
			opts.TempDir = t.TempDir()
			p, ids, err := q.QuantizeDatasetExternalPackedCtx(cancelAfterPolls(n), ds, workers, opts)
			entries, rerr := os.ReadDir(opts.TempDir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if len(entries) != 0 {
				t.Fatalf("%s polls=%d: %d leaked entries", c.name, n, len(entries))
			}
			if err == nil {
				if n == 0 {
					t.Fatalf("%s: a call with no poll left completed", c.name)
				}
				sameGrid(t, want, p.Unpack(), c.name)
				if !slices.Equal(ids, wantIDs) {
					t.Fatalf("%s polls=%d: ids differ from the in-RAM quantize", c.name, n)
				}
				break
			}
			if !errors.Is(err, ErrCanceled) || p != nil || ids != nil {
				t.Fatalf("%s polls=%d: got grid %v, %d ids, err %v; want none and ErrCanceled",
					c.name, n, p != nil, len(ids), err)
			}
		}
	}
}

// TestSpillRunRoundTrip round-trips a run through the spill format — an
// AWG2 stream written by WriteSnapshot, streamed back block by block —
// including masses that need the raw-float64 block mode, and checks that a
// stream whose header does not match the run is typed ErrCorruptSpillRun.
func TestSpillRunRoundTrip(t *testing.T) {
	g := NewFlat([]int{16, 16}, 4)
	g.Append([]uint16{0, 3}, 1)
	g.Append([]uint16{2, 1}, 7)
	g.Append([]uint16{2, 2}, 0.5)     // non-integral → float mass mode
	g.Append([]uint16{15, 15}, 1<<33) // too big for uint32 → float mass mode
	var buf bytes.Buffer
	if err := PackFlat(g).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.spill"
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ cells, d int }{{g.Len() + 1, 2}, {g.Len(), 3}} {
		if err := drainSpillRun(path, c.cells, c.d); !errors.Is(err, ErrCorruptSpillRun) {
			t.Fatalf("run of %d cells in %d dims read as %v, want ErrCorruptSpillRun", c.cells, c.d, err)
		}
	}
	c, err := openSpillCursor(path, 2, g.Len())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i := 0; i < g.Len(); i++ {
		if c.done {
			t.Fatalf("stream exhausted at cell %d", i)
		}
		if cmpCoords(c.cur, g.CellCoords(i)) != 0 {
			t.Fatalf("cell %d coords %v, want %v", i, c.cur, g.CellCoords(i))
		}
		if math.Float64bits(c.mass()) != math.Float64bits(g.Vals[i]) {
			t.Fatalf("cell %d mass %v, want %v", i, c.mass(), g.Vals[i])
		}
		if err := c.advance(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.done {
		t.Fatal("stream not exhausted after last cell")
	}
}

// drainSpillRun opens path as a spill run of declared cells and streams it
// to the end, returning the first error.
func drainSpillRun(path string, cells, d int) error {
	c, err := openSpillCursor(path, d, cells)
	if err != nil {
		return err
	}
	defer c.close()
	for !c.done {
		if err := c.advance(); err != nil {
			return err
		}
	}
	return nil
}

// FuzzReadSpillRun feeds arbitrary bytes to the spill-run reader: any
// input must either stream to completion or fail with an error wrapping
// ErrCorruptSpillRun — never panic, and never allocate beyond the fixed
// per-block decode buffers (the t.TempDir file is the only unbounded
// input, and it is the fuzzer's own).
func FuzzReadSpillRun(f *testing.F) {
	// Seed with valid runs (integer and float masses, multiple blocks) and
	// a few adversarial prefixes.
	big := NewFlat([]int{64, 64}, 0)
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			big.Append([]uint16{uint16(x), uint16(y)}, float64(1+(x+y)%7))
		}
	}
	small := NewFlat([]int{16, 16}, 2)
	small.Append([]uint16{1, 2}, 0.25)
	small.Append([]uint16{3, 4}, 1<<40)
	for _, g := range []*FlatGrid{big, small} {
		var buf bytes.Buffer
		if err := PackFlat(g).WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), g.Len())
	}
	f.Add([]byte{}, 0)
	f.Add([]byte("AWG2\x02\x00\x00\x00\x10\x00\x00\x00\x10\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"), 4)
	f.Add([]byte("AWG1\x02\x00\x00\x00"), 12)

	f.Fuzz(func(t *testing.T, data []byte, cells int) {
		if cells < 0 || cells > 1<<20 {
			cells = 1 << 20
		}
		path := t.TempDir() + "/fuzz.spill"
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := drainSpillRun(path, cells, 2); err != nil && !errors.Is(err, ErrCorruptSpillRun) {
			t.Fatalf("spill decode error not typed as ErrCorruptSpillRun: %v", err)
		}
	})
}
