package persist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"adawave/internal/pointset"
)

// FuzzParseFrame feeds arbitrary bytes to the frame decoders shared by
// recovery replay and the replication stream: ReadFrame splitting a stream
// into frames, and ParseFrame decoding one. Neither may panic, and every
// failure must be a typed torn-record error. Each frame ReadFrame yields
// either decodes to a well-shaped record carrying the frame's sequence or is
// refused as torn, and input that ParseFrame accepts whole is exactly the
// first frame ReadFrame reads from it. ReadRecord, the follower's reader,
// must read the same stream frame for frame as ReadFrame then ParseFrame
// do, with the same records and the same failures. The committed seed corpus under
// testdata/fuzz/FuzzParseFrame holds real append and remove frames.
func FuzzParseFrame(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.log")
	w, err := OpenWAL(path, SyncNever)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.AppendBatch(&pointset.Dataset{Data: []float64{1, 2, 3, 4, 5, 6}, N: 3, D: 2}); err != nil {
		f.Fatal(err)
	}
	if _, err := w.AppendRemove([]int{2, 0}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	stream := raw[len(walMagic):]
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		rr := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, seq, err := ReadFrame(br)
			rframe, rrec, rerr := ReadRecord(rr)
			if err == io.EOF {
				if rerr != io.EOF {
					t.Fatalf("ReadFrame at the end, ReadRecord: %v", rerr)
				}
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTornRecord) || !errors.Is(rerr, ErrTornRecord) {
					t.Fatalf("ReadFrame error %v, ReadRecord error %v: want torn records", err, rerr)
				}
				break
			}
			rec, err := ParseFrame(frame)
			if err != nil {
				if !errors.Is(err, ErrTornRecord) || !errors.Is(rerr, ErrTornRecord) {
					t.Fatalf("ParseFrame error %v, ReadRecord error %v: want torn records", err, rerr)
				}
				continue
			}
			if rec.Seq != seq {
				t.Fatalf("frame read as seq %d parses as seq %d", seq, rec.Seq)
			}
			if rerr != nil || !bytes.Equal(rframe, frame) || !reflect.DeepEqual(rrec, rec) {
				t.Fatalf("ReadRecord read %d bytes as %+v (%v), ReadFrame and ParseFrame %d bytes as %+v", len(rframe), rrec, rerr, len(frame), rec)
			}
			checkFuzzedRecord(t, rec)
		}

		rec, err := ParseFrame(data)
		if err != nil {
			if !errors.Is(err, ErrTornRecord) {
				t.Fatalf("ParseFrame error not a torn record: %v", err)
			}
			return
		}
		checkFuzzedRecord(t, rec)
		frame, seq, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil || seq != rec.Seq || !bytes.Equal(frame, data) {
			t.Fatalf("ParseFrame accepts the input whole, ReadFrame reads seq %d (%v) of %d bytes", seq, err, len(frame))
		}
	})
}

// checkFuzzedRecord asserts a decoded record is exactly one well-shaped
// mutation.
func checkFuzzedRecord(t *testing.T, rec Record) {
	t.Helper()
	switch {
	case rec.Batch != nil && rec.Indices == nil:
		if b := rec.Batch; b.N < 1 || b.D < 1 || len(b.Data) != b.N*b.D {
			t.Fatalf("append record of shape %d×%d carries %d values", b.N, b.D, len(b.Data))
		}
	case rec.Batch == nil && len(rec.Indices) > 0:
	default:
		t.Fatalf("record is neither one append nor one remove: %+v", rec)
	}
}

// FuzzReplayWAL runs crash recovery over arbitrary log bytes: the fuzzed
// bytes, behind the AWL1 magic, are a WAL file that OpenWAL scans and
// ReplayInto replays. Neither may panic. The records they keep must be the
// longest prefix of frames that ReadFrame and ParseFrame both accept with
// strictly increasing sequences, and the opened log must hold exactly those
// frames. A Tailer from 0 over it must yield them up to the first sequence
// gap, which it reports as a tear, and then ErrNoFrame. A second open must
// replay the same records. The committed seed corpus under
// testdata/fuzz/FuzzReplayWAL holds real frames, a torn tail, a bad CRC
// mid-log, a sequence that goes backwards and one that skips ahead.
func FuzzReplayWAL(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path, SyncNever)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.AppendBatch(&pointset.Dataset{Data: []float64{1, 2, 3, 4}, N: 2, D: 2}); err != nil {
		f.Fatal(err)
	}
	if _, err := w.AppendRemove([]int{1}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[len(walMagic):])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		var recs []Record
		kept := 0
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, seq, err := ReadFrame(br)
			if err != nil {
				break
			}
			rec, err := ParseFrame(frame)
			if err != nil || (len(recs) > 0 && seq <= recs[len(recs)-1].Seq) {
				break
			}
			frames, recs = append(frames, frame), append(recs, rec)
			kept += len(frame)
		}
		var lastSeq uint64
		if len(recs) > 0 {
			lastSeq = recs[len(recs)-1].Seq
		}

		// A fresh file each run: a file truncated to zero and rewritten is
		// flushed on close by some filesystems (ext4's auto_da_alloc),
		// which costs every run milliseconds.
		if err := os.WriteFile(path, append([]byte(walMagic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		w, err := OpenWAL(path, SyncNever)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer w.Close()
		if w.Seq() != lastSeq || w.Records() != uint64(len(recs)) || w.Size() != int64(len(walMagic)+kept) {
			t.Fatalf("open kept seq %d, %d records, %d bytes; want seq %d, %d records, %d bytes",
				w.Seq(), w.Records(), w.Size(), lastSeq, len(recs), len(walMagic)+kept)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk[len(walMagic):], data[:kept]) {
			t.Fatalf("open left %d bytes, want the %d-byte valid prefix", len(onDisk), len(walMagic)+kept)
		}
		checkReplay(t, w, recs)

		tail, err := w.NewTailer(0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		gap := false
		for i, frame := range frames {
			got, seq, err := tail.Next()
			if recs[i].Seq != uint64(i+1) {
				if !errors.Is(err, ErrTornRecord) {
					t.Fatalf("tailer at seq %d after %d: err %v, want a sequence-gap tear", recs[i].Seq, i, err)
				}
				gap = true
				break
			}
			if err != nil || seq != recs[i].Seq || !bytes.Equal(got, frame) {
				t.Fatalf("tailer frame %d: seq %d, err %v, want seq %d verbatim", i, seq, err, recs[i].Seq)
			}
		}
		if !gap {
			if _, _, err := tail.Next(); !errors.Is(err, ErrNoFrame) {
				t.Fatalf("tailer past the log: err %v, want ErrNoFrame", err)
			}
		}

		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenWAL(path, SyncNever)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer again.Close()
		if again.Seq() != lastSeq || again.Size() != w.Size() {
			t.Fatalf("second open: seq %d, %d bytes; first open seq %d, %d bytes", again.Seq(), again.Size(), lastSeq, w.Size())
		}
		checkReplay(t, again, recs)
	})
}

// replayLog is a replay Target that records the mutations handed to it.
type replayLog []Record

func (l *replayLog) AppendContext(_ context.Context, ds *pointset.Dataset) error {
	*l = append(*l, Record{Batch: ds})
	return nil
}

func (l *replayLog) RemoveContext(_ context.Context, idx []int) error {
	*l = append(*l, Record{Indices: idx})
	return nil
}

// checkReplay asserts that replaying w from 0 hands over exactly want, in
// order, bit for bit.
func checkReplay(t *testing.T, w *WAL, want []Record) {
	t.Helper()
	var got replayLog
	lastSeq, n, err := w.ReplayInto(0, &got)
	if err != nil || n != len(want) || len(got) != len(want) {
		t.Fatalf("replay: %d records (%d handed over), err %v; want %d", n, len(got), err, len(want))
	}
	if len(want) > 0 && lastSeq != want[len(want)-1].Seq {
		t.Fatalf("replay ends at seq %d, want %d", lastSeq, want[len(want)-1].Seq)
	}
	for i, rec := range got {
		if !sameMutation(rec, want[i]) {
			t.Fatalf("replayed record %d differs from frame seq %d", i, want[i].Seq)
		}
	}
}

// sameMutation compares two records' mutations, floats by their bits.
func sameMutation(a, b Record) bool {
	if (a.Batch == nil) != (b.Batch == nil) || !slices.Equal(a.Indices, b.Indices) {
		return false
	}
	if a.Batch == nil {
		return true
	}
	if a.Batch.N != b.Batch.N || a.Batch.D != b.Batch.D || len(a.Batch.Data) != len(b.Batch.Data) {
		return false
	}
	for i, v := range a.Batch.Data {
		if math.Float64bits(v) != math.Float64bits(b.Batch.Data[i]) {
			return false
		}
	}
	return true
}
