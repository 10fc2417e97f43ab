package grid

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
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
// at several worker counts, leaving no spill files behind. A coarse grid
// adds chunkings whose full chunks are counted by the dense kernel while
// the last chunk, smaller than the cell space, is radix-sorted, so one
// merge takes runs of both kernels.
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
	check := func(q *Quantizer, wantGrid *FlatGrid, wantIDs []int32, chunk int, spill int64, workers int) {
		t.Helper()
		tmp := t.TempDir()
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
		if err != nil {
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
		check(q, wantGrid, wantIDs, chunk, spill, workers)
	}

	// Scale 16 in 3-D is 4096 cells. Chunks of 6000 rows (one worker) or
	// 9000 rows (two 4500-row shards) are counted densely; the last chunk,
	// 2000 rows, is below the cell space and the parallel cutoff, so it is
	// one radix run.
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
		if _, ok := denseCellSpace(coarse.Scale, coarse.Dim(), c.chunk/c.workers); !ok {
			t.Fatalf("chunk=%d workers=%d: full-chunk shards must take the dense kernel", c.chunk, c.workers)
		}
		if last := ds.N % c.chunk; last >= 4096 {
			t.Fatalf("chunk=%d: last chunk of %d rows must fall below the cell space", c.chunk, last)
		}
		check(coarse, coarseGrid, coarseIDs, c.chunk, c.spill, c.workers)
	}
}

// TestQuantizeDatasetExternalCancel checks a cancelled external sort
// unwinds with the taxonomy error and removes its spill directory.
func TestQuantizeDatasetExternalCancel(t *testing.T) {
	ds := clusteredDataset(50000, 2, 7)
	q, err := NewQuantizerDatasetCtx(context.Background(), ds, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tmp := t.TempDir()
	_, _, err = q.QuantizeDatasetExternalPackedCtx(ctx, ds, 2,
		ExtSortOptions{ChunkPoints: 1024, SpillBytes: 1, TempDir: tmp})
	if err == nil {
		t.Fatal("cancelled external sort returned no error")
	}
	entries, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 0 {
		t.Fatalf("%d leaked entries after cancellation", len(entries))
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
