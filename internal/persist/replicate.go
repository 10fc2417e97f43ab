package persist

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Replication substrate: the WAL's length|type|seq|payload|crc frames are
// already self-delimiting and self-checking, so a primary ships them over
// the wire verbatim and a follower journals the same bytes into its own
// log. This file adds the pieces that make that safe:
//
//   - Tailer: a read-only cursor over a live WAL through its own file
//     descriptor, yielding complete frames as the writer appends them and
//     detecting the post-checkpoint truncation (ErrWALReset) instead of
//     reading past a moved tail.
//   - ReadFrame / ParseFrame: the follower's stream-side decoder — one
//     frame off a wire reader, CRC-verified, with a torn mid-record stream
//     surfaced as a typed TornRecordError rather than a silent short read.
//   - (*WAL).AppendFrame: verbatim journaling of a received frame with
//     strict sequence contiguity, so a reconnecting follower can prove it
//     neither lost nor double-applied a mutation.

// ErrTornRecord is the sentinel matched by errors.Is for every
// TornRecordError: the scan or stream ended inside a record rather than at
// a frame boundary.
var ErrTornRecord = errors.New("persist: torn wal record")

// ErrNoFrame reports that a Tailer reached the durable end of the log: no
// complete frame is available yet. The caller waits and retries; it is a
// flow-control signal, not a failure.
var ErrNoFrame = errors.New("persist: no complete frame available")

// ErrWALReset reports that the WAL was truncated (a checkpoint folded its
// records in) since the Tailer was opened, invalidating its offset. The
// subscriber must re-sync from a checkpoint at or above the truncation's
// sequence and open a fresh Tailer.
var ErrWALReset = errors.New("persist: wal reset since tailer opened")

// TornRecordError describes where and why a WAL scan or frame stream
// stopped mid-record. Offset is the byte offset of the torn record in the
// file (-1 when the source is a wire stream with no file position), LastSeq
// the last intact sequence before the tear.
type TornRecordError struct {
	Offset  int64
	LastSeq uint64
	Reason  string
}

func (e *TornRecordError) Error() string {
	if e.Offset < 0 {
		return fmt.Sprintf("persist: torn wal record after seq %d: %s", e.LastSeq, e.Reason)
	}
	return fmt.Sprintf("persist: torn wal record at offset %d after seq %d: %s", e.Offset, e.LastSeq, e.Reason)
}

// Is makes errors.Is(err, ErrTornRecord) match any TornRecordError.
func (e *TornRecordError) Is(target error) bool { return target == ErrTornRecord }

// ReadFrame reads one complete WAL frame (header, payload and CRC trailer,
// verbatim) from a wire stream and returns it with its sequence number. A
// clean end between frames returns io.EOF; a stream that ends or corrupts
// mid-frame returns a *TornRecordError — the follower's signal to drop the
// connection and resume from its last applied sequence.
func ReadFrame(br *bufio.Reader) (frame []byte, seq uint64, err error) {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, &TornRecordError{Offset: -1, Reason: "torn header"}
	}
	length := le.Uint32(hdr[0:4])
	typ := hdr[4]
	seq = le.Uint64(hdr[5:13])
	if length > maxWALRecord || (typ != recAppend && typ != recRemove) || seq == 0 {
		return nil, 0, &TornRecordError{Offset: -1, Reason: "corrupt header"}
	}
	frame = make([]byte, walHeaderLen+int(length)+4)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(br, frame[walHeaderLen:]); err != nil {
		return nil, 0, &TornRecordError{Offset: -1, LastSeq: seq - 1, Reason: "torn payload"}
	}
	if crc32.Checksum(frame[:walHeaderLen+int(length)], castagnoli) != le.Uint32(frame[walHeaderLen+int(length):]) {
		return nil, 0, &TornRecordError{Offset: -1, LastSeq: seq - 1, Reason: "crc mismatch"}
	}
	return frame, seq, nil
}

// ParseFrame validates a complete frame (shape and CRC) and decodes it into
// a Record. The follower applies the Record to its warm session and
// journals the frame bytes untouched — one validation, two consumers.
func ParseFrame(frame []byte) (Record, error) {
	if len(frame) < walHeaderLen+4 {
		return Record{}, &TornRecordError{Offset: -1, Reason: "short frame"}
	}
	length := le.Uint32(frame[0:4])
	typ := frame[4]
	seq := le.Uint64(frame[5:13])
	if int(length) != len(frame)-walHeaderLen-4 || length > maxWALRecord || seq == 0 {
		return Record{}, &TornRecordError{Offset: -1, Reason: "corrupt header"}
	}
	if crc32.Checksum(frame[:walHeaderLen+int(length)], castagnoli) != le.Uint32(frame[walHeaderLen+int(length):]) {
		return Record{}, &TornRecordError{Offset: -1, LastSeq: seq - 1, Reason: "crc mismatch"}
	}
	rec, ok := parseRecord(typ, seq, frame[walHeaderLen:walHeaderLen+int(length)])
	if !ok {
		return Record{}, &TornRecordError{Offset: -1, LastSeq: seq - 1, Reason: "malformed record"}
	}
	return rec, nil
}

// AppendFrame journals a received frame verbatim. The frame is validated
// (shape and CRC) and its sequence must be exactly one past the log's —
// strict contiguity is what lets a follower prove it lost nothing across a
// reconnect. The frame bytes reach the file unchanged, so the follower's
// log is byte-identical to the primary's for the shared suffix.
func (w *WAL) AppendFrame(frame []byte) (_ uint64, err error) {
	rec, err := ParseFrame(frame)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if rec.Seq != w.seq+1 {
		return 0, fmt.Errorf("persist: frame seq %d breaks contiguity after %d", rec.Seq, w.seq)
	}
	defer w.rollbackOnError(&err)
	if _, err := w.bw.Write(frame); err != nil {
		return 0, fmt.Errorf("persist: wal append frame: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return 0, fmt.Errorf("persist: wal append frame: %w", err)
	}
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("persist: wal sync: %w", err)
		}
	}
	w.seq = rec.Seq
	w.records++
	w.size += int64(len(frame))
	return rec.Seq, nil
}

// Tailer is a read-only cursor over a live WAL, yielding complete frames in
// sequence order through its own file descriptor — the writer's buffered
// writer, offsets and mutex are never shared. Appends become visible to the
// Tailer once the writer's per-record flush lands (i.e. once the mutation
// is acknowledged); the durable end of the log shows up as ErrNoFrame, a
// checkpoint's truncation as ErrWALReset.
type Tailer struct {
	w    *WAL
	f    File
	gen  uint64
	off  int64
	last uint64 // last yielded (or subscribed-from) sequence
}

// NewTailer opens a frame cursor that yields sequences strictly above
// fromSeq. The first yielded frame must be fromSeq+1 — if the log has been
// checkpointed past fromSeq the caller finds out via the contiguity check
// (or via ErrWALReset when the truncation races the tail), and must re-sync
// from a checkpoint instead.
func (w *WAL) NewTailer(fromSeq uint64) (*Tailer, error) {
	f, err := w.fs.OpenFile(w.path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal tail: %w", err)
	}
	return &Tailer{
		w:    w,
		f:    f,
		gen:  w.gen.Load(),
		off:  int64(len(walMagic)),
		last: fromSeq,
	}, nil
}

// LastSeq returns the sequence of the last frame Next yielded (or the
// subscription point if none has been yielded yet).
func (t *Tailer) LastSeq() uint64 { return t.last }

// Next returns the next complete frame and its sequence. ErrNoFrame means
// the durable end of the log was reached (retry after a wait or a
// writer-side notification); ErrWALReset means a checkpoint truncated the
// log under the cursor. Frames at or below the subscription point are
// skipped; a sequence gap above it is corruption and surfaces as a
// *TornRecordError.
func (t *Tailer) Next() ([]byte, uint64, error) {
	for {
		if t.w.gen.Load() != t.gen {
			return nil, 0, ErrWALReset
		}
		// Reads stop at the writer's account of valid bytes: everything
		// below w.size is a complete, flushed record, so the cursor never
		// observes a half-written append.
		limit := t.w.Size()
		if t.off+walHeaderLen+4 > limit {
			return nil, 0, ErrNoFrame
		}
		var hdr [walHeaderLen]byte
		if _, err := t.f.ReadAt(hdr[:], t.off); err != nil {
			if t.w.gen.Load() != t.gen {
				return nil, 0, ErrWALReset
			}
			return nil, 0, fmt.Errorf("persist: wal tail read: %w", err)
		}
		length := le.Uint32(hdr[0:4])
		typ := hdr[4]
		seq := le.Uint64(hdr[5:13])
		if length > maxWALRecord || (typ != recAppend && typ != recRemove) || seq == 0 {
			return nil, 0, &TornRecordError{Offset: t.off, LastSeq: t.last, Reason: "corrupt header"}
		}
		frameLen := int64(walHeaderLen) + int64(length) + 4
		if t.off+frameLen > limit {
			return nil, 0, ErrNoFrame
		}
		frame := make([]byte, frameLen)
		if _, err := t.f.ReadAt(frame, t.off); err != nil {
			if t.w.gen.Load() != t.gen {
				return nil, 0, ErrWALReset
			}
			return nil, 0, fmt.Errorf("persist: wal tail read: %w", err)
		}
		// A Reset that raced the reads above could have replaced the bytes;
		// re-check the generation before trusting them.
		if t.w.gen.Load() != t.gen {
			return nil, 0, ErrWALReset
		}
		if crc32.Checksum(frame[:walHeaderLen+int(length)], castagnoli) != le.Uint32(frame[walHeaderLen+int(length):]) {
			return nil, 0, &TornRecordError{Offset: t.off, LastSeq: t.last, Reason: "crc mismatch"}
		}
		t.off += frameLen
		if seq <= t.last {
			// Below or at the subscription point: already applied by the
			// subscriber, skip without yielding.
			continue
		}
		if seq != t.last+1 {
			return nil, 0, &TornRecordError{Offset: t.off - frameLen, LastSeq: t.last, Reason: fmt.Sprintf("sequence gap: want %d, found %d", t.last+1, seq)}
		}
		t.last = seq
		return frame, seq, nil
	}
}

// Close releases the Tailer's file descriptor.
func (t *Tailer) Close() error { return t.f.Close() }
