package persist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"adawave/internal/pointset"
)

func walWithRecords(t *testing.T, dir string, n int) (*WAL, string) {
	t.Helper()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		batch := &pointset.Dataset{Data: []float64{float64(i), float64(i) + 0.5}, N: 1, D: 2}
		if _, err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return w, path
}

// TestReplayWALStrictTornTail: a log whose last record is torn mid-payload
// must reach a follower as its intact frames followed by a typed torn-stream
// error from ReadFrame, carrying the last intact sequence — never as a
// silent short read that would let the follower believe itself caught up.
// The crash-recovery replay of the same bytes keeps its lenient contract
// and replays the intact prefix.
func TestReplayWALStrictTornTail(t *testing.T) {
	dir := t.TempDir()
	w, path := walWithRecords(t, dir, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the last record mid-payload.
	torn := full[:len(full)-5]
	br := bufio.NewReader(bytes.NewReader(torn[len(walMagic):]))
	var got []uint64
	for {
		_, seq, err := ReadFrame(br)
		if err != nil {
			if !errors.Is(err, ErrTornRecord) {
				t.Fatalf("torn stream: err %v, want ErrTornRecord", err)
			}
			var tre *TornRecordError
			if !errors.As(err, &tre) || tre.LastSeq != 2 {
				t.Fatalf("torn stream: %+v, want LastSeq 2", tre)
			}
			break
		}
		got = append(got, seq)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("torn stream yielded seqs %v before the tear, want [1 2]", got)
	}
	// The crash-recovery replay keeps its lenient contract on the same file.
	tornPath := filepath.Join(dir, "torn.log")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, n, err := replayWAL(OS, tornPath, -1, 0, func(Record) error { return nil }); err != nil || n != 2 {
		t.Fatalf("lenient replay on torn file: %d records, err %v", n, err)
	}
}

// TestTailerStreamsVerbatim: frames pulled off a live WAL and journaled via
// AppendFrame must leave the replica log byte-identical to the source.
func TestTailerStreamsVerbatim(t *testing.T) {
	dir := t.TempDir()
	src, srcPath := walWithRecords(t, dir, 4)
	defer src.Close()
	dstPath := filepath.Join(dir, "replica.log")
	dst, err := OpenWAL(dstPath, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	tail, err := src.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for want := uint64(1); want <= 4; want++ {
		frame, seq, err := tail.Next()
		if err != nil || seq != want {
			t.Fatalf("tail frame: seq %d, err %v, want %d", seq, err, want)
		}
		if got, err := dst.AppendFrame(frame); err != nil || got != want {
			t.Fatalf("append frame %d: got %d, err %v", want, got, err)
		}
	}
	if _, _, err := tail.Next(); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("tail at end: err %v, want ErrNoFrame", err)
	}
	// A frame appended after the tailer drained becomes visible.
	if _, err := src.AppendRemove([]int{0}); err != nil {
		t.Fatal(err)
	}
	frame, seq, err := tail.Next()
	if err != nil || seq != 5 {
		t.Fatalf("tail after new append: seq %d, err %v", seq, err)
	}
	if _, err := dst.AppendFrame(frame); err != nil {
		t.Fatal(err)
	}

	if err := src.Sync(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dstPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("replica log diverged: %d vs %d bytes", len(a), len(b))
	}
}

// TestAppendFrameContiguity: duplicates and gaps must be rejected, and a
// corrupted frame must never reach the replica log.
func TestAppendFrameContiguity(t *testing.T) {
	dir := t.TempDir()
	src, _ := walWithRecords(t, dir, 3)
	defer src.Close()
	dst, err := OpenWAL(filepath.Join(dir, "replica.log"), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	tail, err := src.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var frames [][]byte
	for i := 0; i < 3; i++ {
		frame, _, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	if _, err := dst.AppendFrame(frames[1]); err == nil {
		t.Fatal("gap (seq 2 before 1) must be rejected")
	}
	if _, err := dst.AppendFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AppendFrame(frames[0]); err == nil {
		t.Fatal("duplicate frame must be rejected")
	}
	bad := append([]byte(nil), frames[1]...)
	bad[len(bad)-6] ^= 0xFF
	if _, err := dst.AppendFrame(bad); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("corrupt frame: err %v, want ErrTornRecord", err)
	}
	if _, err := dst.AppendFrame(frames[1]); err != nil {
		t.Fatal(err)
	}
	if dst.Seq() != 2 {
		t.Fatalf("replica seq %d, want 2", dst.Seq())
	}
}

// TestTailerSubscriptionAndGap: a tailer skips frames at or below its
// subscription point, and a log whose first frame starts past the
// subscription (the WAL was checkpointed away underneath a stale follower)
// is a detected gap, not a silent skip.
func TestTailerSubscriptionAndGap(t *testing.T) {
	dir := t.TempDir()
	w, _ := walWithRecords(t, dir, 4)
	defer w.Close()

	tail, err := w.NewTailer(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, seq, err := tail.Next(); err != nil || seq != 3 {
		t.Fatalf("subscription from 2: first seq %d, err %v, want 3", seq, err)
	}
	tail.Close()

	// Checkpoint the log away: records 1..4 fold in, new records start at 5.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRemove([]int{1}); err != nil {
		t.Fatal(err)
	}
	stale, err := w.NewTailer(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if _, _, err := stale.Next(); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("stale subscription across a reset: err %v, want a sequence-gap tear", err)
	}
}

// TestTailerDetectsReset: a checkpoint truncation under a live tailer must
// surface ErrWALReset, and a fresh tailer over the post-reset log works.
func TestTailerDetectsReset(t *testing.T) {
	dir := t.TempDir()
	w, _ := walWithRecords(t, dir, 2)
	defer w.Close()
	tail, err := w.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, seq, err := tail.Next(); err != nil || seq != 1 {
		t.Fatalf("first frame: seq %d, err %v", seq, err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tail.Next(); !errors.Is(err, ErrWALReset) {
		t.Fatalf("tail across reset: err %v, want ErrWALReset", err)
	}
	w.SkipTo(2)
	if _, err := w.AppendRemove([]int{0}); err != nil {
		t.Fatal(err)
	}
	fresh, err := w.NewTailer(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, seq, err := fresh.Next(); err != nil || seq != 3 {
		t.Fatalf("fresh tailer after reset: seq %d, err %v, want 3", seq, err)
	}
}

// TestReadFrameTornStream: the wire-side reader must hand back complete
// frames, report a clean boundary as io.EOF, and classify a connection that
// died mid-frame as a torn record — which is what lets a follower reconnect
// and resume from its last applied sequence without double-applying.
func TestReadFrameTornStream(t *testing.T) {
	dir := t.TempDir()
	w, path := walWithRecords(t, dir, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stream := full[len(walMagic):] // the wire carries frames, no magic

	// Clean stream: three frames then EOF.
	br := bufio.NewReader(bytes.NewReader(stream))
	var frames [][]byte
	for {
		frame, seq, err := ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(len(frames)+1) {
			t.Fatalf("stream frame seq %d at position %d", seq, len(frames))
		}
		if rec, err := ParseFrame(frame); err != nil || rec.Seq != seq {
			t.Fatalf("parse frame %d: %+v, %v", seq, rec, err)
		}
		frames = append(frames, frame)
	}
	if len(frames) != 3 {
		t.Fatalf("streamed %d frames, want 3", len(frames))
	}

	// The connection dies mid-frame: two intact frames, then a tear.
	cut := len(stream) - len(frames[2])/2
	br = bufio.NewReader(bytes.NewReader(stream[:cut]))
	intact := 0
	var streamErr error
	for {
		_, _, err := ReadFrame(br)
		if err != nil {
			streamErr = err
			break
		}
		intact++
	}
	if intact != 2 || !errors.Is(streamErr, ErrTornRecord) {
		t.Fatalf("torn stream: %d intact frames, err %v", intact, streamErr)
	}

	// Reconnect: the follower re-requests from its last applied seq (2) and
	// applies the remainder exactly once.
	dst, err := OpenWAL(filepath.Join(dir, "replica.log"), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for _, f := range frames[:2] {
		if _, err := dst.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	src, err := OpenWAL(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	resume, err := src.NewTailer(dst.Seq())
	if err != nil {
		t.Fatal(err)
	}
	defer resume.Close()
	frame, seq, err := resume.Next()
	if err != nil || seq != 3 {
		t.Fatalf("resume frame: seq %d, err %v, want 3", seq, err)
	}
	if _, err := dst.AppendFrame(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resume.Next(); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("resume drained: err %v, want ErrNoFrame", err)
	}
	if dst.Seq() != 3 || dst.Records() != 3 {
		t.Fatalf("replica after resume: seq %d, %d records", dst.Seq(), dst.Records())
	}
}
