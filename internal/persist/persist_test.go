package persist

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// testState builds a small but structurally complete session state: random
// rows quantized into a real grid with memoized ids.
func testState(t testing.TB, n int) *SessionState {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ds := pointset.New(2, n)
	for i := 0; i < n; i++ {
		ds.AppendRow([]float64{rng.Float64() * 10, rng.Float64() * 10})
	}
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, ids, err := q.QuantizeDatasetCtx(context.Background(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &SessionState{
		Config: ConfigMeta{Scale: 16, Levels: 1, Basis: "cdf22", Connectivity: "faces",
			CoeffEpsilon: 0.01, Threshold: "three-segment-fit", MinClusterCells: 1, MinClusterMass: 0.05},
		DS: ds, IDs: ids, Scale: 16, Mins: q.Mins, Maxs: q.Maxs, Grid: grid.PackFlat(g),
	}
}

func assertStatesEqual(t *testing.T, want, got *SessionState) {
	t.Helper()
	if got.Config != want.Config {
		t.Fatalf("config: got %+v, want %+v", got.Config, want.Config)
	}
	if got.DS.N != want.DS.N || got.DS.D != want.DS.D {
		t.Fatalf("shape: got %d×%d, want %d×%d", got.DS.N, got.DS.D, want.DS.N, want.DS.D)
	}
	for i, v := range want.DS.Data {
		if got.DS.Data[i] != v {
			t.Fatalf("row datum %d: got %v, want %v", i, got.DS.Data[i], v)
		}
	}
	for i, id := range want.IDs {
		if got.IDs[i] != id {
			t.Fatalf("id %d: got %d, want %d", i, got.IDs[i], id)
		}
	}
	if got.Scale != want.Scale {
		t.Fatalf("scale: got %d, want %d", got.Scale, want.Scale)
	}
	for j := range want.Mins {
		if got.Mins[j] != want.Mins[j] || got.Maxs[j] != want.Maxs[j] {
			t.Fatalf("frame dim %d: got [%v,%v], want [%v,%v]", j, got.Mins[j], got.Maxs[j], want.Mins[j], want.Maxs[j])
		}
	}
	gg, wg := got.Grid.Unpack(), want.Grid.Unpack()
	if gg.Len() != wg.Len() {
		t.Fatalf("grid cells: got %d, want %d", gg.Len(), wg.Len())
	}
	for i := 0; i < wg.Len(); i++ {
		if gg.Vals[i] != wg.Vals[i] {
			t.Fatalf("grid mass %d: got %v, want %v", i, gg.Vals[i], wg.Vals[i])
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := testState(t, 200)
	var buf bytes.Buffer
	if err := WriteSessionCheckpoint(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSessionCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertStatesEqual(t, want, got)
}

func TestCheckpointEmptySession(t *testing.T) {
	st := &SessionState{Config: ConfigMeta{Basis: "haar", Threshold: "three-segment-fit"}, DS: &pointset.Dataset{D: 3}}
	var buf bytes.Buffer
	if err := WriteSessionCheckpoint(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSessionCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DS.N != 0 || got.DS.D != 3 || got.Grid != nil {
		t.Fatalf("empty checkpoint restored to %d×%d points, grid %v", got.DS.N, got.DS.D, got.Grid)
	}
}

// TestCheckpointRejectsCorruption: truncation anywhere and a flipped byte
// anywhere must be reported, never restored silently.
func TestCheckpointRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSessionCheckpoint(&buf, testState(t, 64)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, cut := range []int{0, 3, 10, len(good) / 2, len(good) - 1} {
		if _, err := ReadSessionCheckpoint(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	for _, flip := range []int{5, len(good) / 3, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[flip] ^= 0xFF
		if _, err := ReadSessionCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipped byte at %d must error", flip)
		}
	}
}

func TestCheckConfig(t *testing.T) {
	a := ConfigMeta{Scale: 128, Basis: "cdf22", Threshold: "three-segment-fit"}
	if err := CheckConfig(a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Basis = "haar"
	if err := CheckConfig(a, b); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("got %v, want ErrConfigMismatch", err)
	}
}

// collect replays a WAL into memory.
func collect(t *testing.T, path string, fromSeq uint64) []Record {
	t.Helper()
	var recs []Record
	if _, _, err := replayWAL(OS, path, -1, fromSeq, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	batch := &pointset.Dataset{Data: []float64{1, 2, 3, 4}, N: 2, D: 2}
	if seq, err := w.AppendBatch(batch); err != nil || seq != 1 {
		t.Fatalf("first append: seq %d, err %v", seq, err)
	}
	if seq, err := w.AppendRemove([]int{0}); err != nil || seq != 2 {
		t.Fatalf("remove: seq %d, err %v", seq, err)
	}
	if seq, err := w.AppendBatch(batch); err != nil || seq != 3 {
		t.Fatalf("second append: seq %d, err %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs := collect(t, path, 0)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Batch == nil || recs[0].Batch.N != 2 || recs[0].Batch.Data[3] != 4 {
		t.Fatalf("record 1 malformed: %+v", recs[0])
	}
	if recs[1].Indices == nil || recs[1].Indices[0] != 0 {
		t.Fatalf("record 2 malformed: %+v", recs[1])
	}
	// fromSeq filters already-checkpointed records.
	if tail := collect(t, path, 2); len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("tail replay from seq 2: %+v", tail)
	}
	// Reopening resumes the sequence counter after the last record.
	w2, err := OpenWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Seq() != 3 {
		t.Fatalf("reopened seq %d, want 3", w2.Seq())
	}
	if seq, err := w2.AppendRemove([]int{1}); err != nil || seq != 4 {
		t.Fatalf("append after reopen: seq %d, err %v", seq, err)
	}
}

// TestWALTornTail: truncating the log at every byte inside the last record
// must recover exactly the intact prefix, and reopening must truncate the
// tear so new appends land on a record boundary.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	batch := &pointset.Dataset{Data: []float64{1, 2}, N: 1, D: 2}
	var bounds []int64
	for i := 0; i < 3; i++ {
		if _, err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := bounds[1] + 1; cut < bounds[2]; cut++ {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if recs := collect(t, torn, 0); len(recs) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(recs))
		}
		tw, err := OpenWAL(torn, SyncNever)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if tw.Seq() != 2 || tw.Size() != bounds[1] {
			t.Fatalf("cut at %d: reopened seq %d size %d, want 2/%d", cut, tw.Seq(), tw.Size(), bounds[1])
		}
		if _, err := tw.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		tw.Close()
		if recs := collect(t, torn, 0); len(recs) != 3 {
			t.Fatalf("cut at %d: after healing append, %d records", cut, len(recs))
		}
	}
}

// TestWALReset: the post-checkpoint truncation keeps the sequence counter
// climbing, so replay-from-checkpoint-seq sees only newer records.
func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := &pointset.Dataset{Data: []float64{9, 9}, N: 1, D: 2}
	for i := 0; i < 2; i++ {
		if _, err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	ckptSeq := w.Seq()
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Fatalf("records after reset: %d", w.Records())
	}
	if seq, err := w.AppendRemove([]int{0}); err != nil || seq != ckptSeq+1 {
		t.Fatalf("post-reset seq %d, want %d", seq, ckptSeq+1)
	}
	recs := collect(t, path, ckptSeq)
	if len(recs) != 1 || recs[0].Indices == nil {
		t.Fatalf("post-reset replay: %+v", recs)
	}
}

// TestWALRejectsOverflowShapedRecord: a CRC-valid record whose declared
// n×d would overflow the shape check (n·d products past 2^31/2^63) must
// end the scan as corruption — not pass a wrapped length comparison and
// panic on a giant allocation.
func TestWALRejectsOverflowShapedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(&pointset.Dataset{Data: []float64{1, 2}, N: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Craft record 2 by hand: 8-byte payload declaring n=2^31, d=2^30 —
	// 8+8·n·d wraps to 8 in 64-bit arithmetic — with a correct CRC.
	payload := make([]byte, 8)
	le.PutUint32(payload[0:4], 1<<31)
	le.PutUint32(payload[4:8], 1<<30)
	var hdr [walHeaderLen]byte
	le.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = recAppend
	le.PutUint64(hdr[5:13], 2)
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, payload)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(hdr[:])
	f.Write(payload)
	var trailer [4]byte
	le.PutUint32(trailer[:], crc)
	f.Write(trailer[:])
	f.Close()

	recs := collect(t, path, 0) // must not panic, must stop at record 2
	if len(recs) != 1 {
		t.Fatalf("replayed %d records past the malformed one, want 1", len(recs))
	}
	w2, err := OpenWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Seq() != 1 {
		t.Fatalf("reopened seq %d, want 1 (malformed tail truncated)", w2.Seq())
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("definitely not a WAL header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path, SyncNever); err == nil {
		t.Fatal("foreign file must not open as a WAL")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseSyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("%s: %v %v", s, p, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy must error")
	}
}
