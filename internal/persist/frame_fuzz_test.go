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

// FuzzParseFrame feeds arbitrary bytes to the frame decoders shared by
// recovery replay and the replication stream: ReadFrame splitting a stream
// into frames, and ParseFrame decoding one. Neither may panic, and every
// failure must be a typed torn-record error. Each frame ReadFrame yields
// either decodes to a well-shaped record carrying the frame's sequence or is
// refused as torn, and input that ParseFrame accepts whole is exactly the
// first frame ReadFrame reads from it. The committed seed corpus under
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
		for {
			frame, seq, err := ReadFrame(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTornRecord) {
					t.Fatalf("ReadFrame error not a torn record: %v", err)
				}
				break
			}
			rec, err := ParseFrame(frame)
			if err != nil {
				if !errors.Is(err, ErrTornRecord) {
					t.Fatalf("ParseFrame error not a torn record: %v", err)
				}
				continue
			}
			if rec.Seq != seq {
				t.Fatalf("frame read as seq %d parses as seq %d", seq, rec.Seq)
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
