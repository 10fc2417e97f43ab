package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// Replication substrate: the WAL's length|type|seq|payload|crc frames are
// already self-delimiting and self-checking, so a primary ships them over
// the wire verbatim and a follower journals the same bytes into its own
// log. Recovery and replication read frames with the same readFrame
// (wal.go). This file adds the pieces that make replication safe:
//
//   - Tailer: a read-only cursor over a live WAL through its own file
//     descriptor, yielding complete frames as the writer appends them and
//     detecting the post-checkpoint truncation (ErrWALReset) instead of
//     reading past a moved tail; (*WAL).Changed tells it when to read again.
//   - ReadRecord / ReadFrame / ParseFrame: the follower's stream-side
//     decoder — one frame off a wire reader, CRC-verified once and decoded
//     with it, with a torn mid-record stream surfaced as a typed
//     TornRecordError rather than a silent short read.
//   - (*WAL).AppendFrame: verbatim journaling of a frame the follower has
//     parsed, with strict sequence contiguity, so a reconnecting follower
//     can prove it neither lost nor double-applied a mutation.

// ErrTornRecord is the sentinel matched by errors.Is for every
// TornRecordError: the scan or stream ended inside a record rather than at
// a frame boundary.
var ErrTornRecord = errors.New("persist: torn wal record")

// ErrNoFrame reports that a Tailer reached the durable end of the log: no
// complete frame is available yet. The caller waits and retries; it is a
// flow-control signal, not a failure.
var ErrNoFrame = errors.New("persist: no complete frame available")

// ErrWALReset reports that the WAL was truncated (a checkpoint folded its
// records in) since the Tailer was opened, invalidating its offset. Resume
// re-attaches the Tailer when the truncation took only frames it had
// yielded; otherwise the subscriber must re-sync from a checkpoint at or
// above the truncation's sequence and open a fresh Tailer.
var ErrWALReset = errors.New("persist: wal reset since tailer opened")

// TornRecordError describes where and why a WAL scan or frame stream
// stopped mid-record. Offset is the byte offset of the torn record in the
// file (-1 when the source is a wire stream with no file position), LastSeq
// the last intact sequence before the tear.
type TornRecordError struct {
	Offset  int64
	LastSeq uint64
	Reason  string
	cause   error // the read failure behind a torn header or payload, if any
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
	frame, h, err := readFrame(br, -1, nil)
	return frame, h.seq, err
}

// ReadRecord is ReadFrame that also decodes the frame: it returns the
// verbatim frame with the Record it holds, so a follower applies and
// journals each frame checked once. The torn-record and io.EOF contract is
// ReadFrame's; a frame whose payload does not decode as a record is a
// *TornRecordError too.
func ReadRecord(br *bufio.Reader) (frame []byte, rec Record, err error) {
	frame, h, err := readFrame(br, -1, nil)
	if err != nil {
		return nil, Record{}, err
	}
	rec, ok := parseRecord(h.typ, h.seq, frame[walHeaderLen:len(frame)-4])
	if !ok {
		return nil, Record{}, &TornRecordError{Offset: -1, LastSeq: h.seq - 1, Reason: "malformed record"}
	}
	return frame, rec, nil
}

// ParseFrame validates a complete frame (shape and CRC) and decodes it into
// a Record. The follower applies the Record to its warm session and
// journals the frame bytes untouched — one validation, two consumers.
func ParseFrame(frame []byte) (Record, error) {
	if len(frame) < walHeaderLen+4 {
		return Record{}, &TornRecordError{Offset: -1, Reason: "short frame"}
	}
	h, err := decodeHead(frame)
	if err != nil {
		return Record{}, err
	}
	if walHeaderLen+h.length+4 != len(frame) {
		return Record{}, &TornRecordError{Offset: -1, Reason: "corrupt header"}
	}
	if err := checkCRC(frame, h.seq); err != nil {
		return Record{}, err
	}
	rec, ok := parseRecord(h.typ, h.seq, frame[walHeaderLen:len(frame)-4])
	if !ok {
		return Record{}, &TornRecordError{Offset: -1, LastSeq: h.seq - 1, Reason: "malformed record"}
	}
	return rec, nil
}

// AppendFrame journals a received frame verbatim. rec is the frame as
// ReadRecord or ParseFrame decoded it, so the frame is validated once, before the
// follower applies it; its sequence must be exactly one past the log's —
// strict contiguity is what lets a follower prove it lost nothing across a
// reconnect. The frame bytes reach the file unchanged, so the follower's
// log is byte-identical to the primary's for the shared suffix.
func (w *WAL) AppendFrame(frame []byte, rec Record) (_ uint64, err error) {
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
	w.notifyLocked()
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
// the durable end of the log was reached (wait on the WAL's Changed channel,
// taken before the call, and retry); ErrWALReset means a checkpoint
// truncated the log under the cursor (see Resume). Frames at or below the
// subscription point are skipped; a sequence gap above it is corruption and
// surfaces as a *TornRecordError.
func (t *Tailer) Next() ([]byte, uint64, error) {
	for {
		if t.w.gen.Load() != t.gen {
			return nil, 0, ErrWALReset
		}
		// Reads stop at the writer's account of valid bytes: everything
		// below w.size is a complete, flushed record, so the cursor never
		// observes a half-written append.
		left := max(t.w.Size()-t.off, 0)
		frame, h, err := readFrame(io.NewSectionReader(t.f, t.off, left), left, nil)
		// A Reset that raced the reads could have replaced or cut the
		// bytes; re-check the generation before trusting what they say.
		if t.w.gen.Load() != t.gen {
			return nil, 0, ErrWALReset
		}
		if err != nil {
			var torn *TornRecordError
			switch {
			case !errors.As(err, &torn):
				return nil, 0, err // ErrNoFrame
			case torn.cause != nil:
				return nil, 0, fmt.Errorf("persist: wal tail read: %w", torn.cause)
			}
			return nil, 0, &TornRecordError{Offset: t.off, LastSeq: t.last, Reason: torn.Reason}
		}
		t.off += int64(len(frame))
		if h.seq <= t.last {
			// Below or at the subscription point: already applied by the
			// subscriber, skip without yielding.
			continue
		}
		if h.seq != t.last+1 {
			return nil, 0, &TornRecordError{Offset: t.off - int64(len(frame)), LastSeq: t.last, Reason: fmt.Sprintf("sequence gap: want %d, found %d", t.last+1, h.seq)}
		}
		t.last = h.seq
		return frame, h.seq, nil
	}
}

// Resume re-attaches the Tailer after Next reported ErrWALReset. When the
// reset took no frame the cursor had not yet yielded — LastSeq is at or past
// the sequence the log held when a checkpoint reset it — every later frame
// is in the truncated log, so the cursor moves to its front and Next
// continues with LastSeq()+1. Otherwise the frames in between exist only in
// the checkpoint, and Resume returns ErrWALReset: the subscriber re-syncs
// from the checkpoint.
func (t *Tailer) Resume() error {
	t.w.mu.Lock()
	defer t.w.mu.Unlock()
	if t.last < t.w.resetSeq {
		return ErrWALReset
	}
	t.gen, t.off = t.w.gen.Load(), int64(len(walMagic))
	return nil
}

// Close releases the Tailer's file descriptor.
func (t *Tailer) Close() error { return t.f.Close() }
