package persist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"adawave/internal/pointset"
)

// The WAL is a single append-only file per session:
//
//	"AWL1" | record*
//	record: length uint32 | type uint8 | seq uint64 | payload | crc32c uint32
//
// length counts payload bytes; the CRC covers length, type, seq and the
// payload, so a torn write anywhere in the record is detected. Sequence
// numbers increase strictly across the session's lifetime and survive a
// Reset (the post-checkpoint truncation), which is what lets recovery
// replay exactly the records a checkpoint has not folded in: the checkpoint
// carries the last sequence it contains, and replay skips everything at or
// below it — so a crash between checkpoint rename and WAL truncation never
// double-applies a batch.
//
// Payloads:
//
//	append (type 1): n uint32 | d uint32 | data n·d float64
//	remove (type 2): k uint32 | indices k int64
const (
	walMagic     = "AWL1"
	recAppend    = 1
	recRemove    = 2
	walHeaderLen = 4 + 1 + 8 // length | type | seq
	// maxWALRecord bounds a single record so a corrupt length field cannot
	// demand an absurd read; 1 GiB is far above any real batch.
	maxWALRecord = 1 << 30
)

// SyncPolicy selects when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: a mutation is durable
	// before its HTTP response is written. Slowest, zero-loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a periodic caller of Sync (the serving
	// layer's background ticker): a crash loses at most the last interval.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes on its schedule. A
	// process crash loses nothing (the page cache survives), a machine
	// crash loses unflushed records.
	SyncNever
)

// ParseSyncPolicy maps the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("persist: unknown sync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// WAL is an open write-ahead log. It is safe for concurrent use (one
// writer's appends interleaved with a background Sync ticker and any number
// of replication Tailers reading the file through their own descriptors).
type WAL struct {
	mu      sync.Mutex
	fs      FS
	f       File
	bw      *bufio.Writer
	path    string
	policy  SyncPolicy
	seq     uint64 // last sequence number written (or recovered)
	records uint64 // records appended since the last Reset
	size    int64  // valid bytes (magic + intact records)
	failed  error  // a rollback left torn bytes behind: appends refused until Reset
	gen     atomic.Uint64
}

// OpenWAL opens (creating if absent) the log at path. An existing log is
// scanned to the last intact record: the sequence counter resumes after it,
// and a torn trailing record — the signature of a crash mid-append — is
// truncated away. Corruption before the tail (a bad magic) is an error, not
// a truncation: it means the file is not a WAL at all.
func OpenWAL(path string, policy SyncPolicy) (*WAL, error) {
	return OpenWALFS(OS, path, policy)
}

// OpenWALFS is OpenWAL over fsys: the log, and every Tailer and replay of
// it, reach the disk only through that filesystem.
func OpenWALFS(fsys FS, path string, policy SyncPolicy) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	w := &WAL{fs: fsys, f: f, path: path, policy: policy, size: int64(len(walMagic))}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	if st.Size() < int64(len(walMagic)) {
		// New (or torn-before-magic) log: start fresh.
		err := f.Truncate(0)
		if err == nil {
			_, err = f.Write([]byte(walMagic))
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: init wal: %w", err)
		}
	} else {
		lastSeq, validOff, records, _, err := scanWAL(f, 0, nil)
		if err != nil {
			f.Close()
			return nil, err
		}
		if validOff < st.Size() {
			// Torn or corrupt tail: discard it so new appends start at a
			// record boundary.
			if err := f.Truncate(validOff); err != nil {
				f.Close()
				return nil, fmt.Errorf("persist: truncate torn wal tail: %w", err)
			}
		}
		w.seq, w.size, w.records = lastSeq, validOff, records
	}
	if _, err := f.Seek(w.size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	w.bw = bufio.NewWriter(f)
	return w, nil
}

// Seq returns the last written (or recovered) sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Records returns the number of records appended since the last Reset — the
// serving layer's "does this session need a checkpoint" signal.
func (w *WAL) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Size returns the current valid log size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// AppendBatch journals an append mutation and returns its sequence number.
func (w *WAL) AppendBatch(ds *pointset.Dataset) (uint64, error) {
	if ds == nil || ds.N == 0 {
		return 0, errors.New("persist: empty append batch")
	}
	if ds.N >= math.MaxUint32 || ds.D >= math.MaxUint32 {
		return 0, fmt.Errorf("persist: batch shape %d×%d exceeds the record format", ds.N, ds.D)
	}
	payload := 8 + 8*ds.N*ds.D
	return w.append(recAppend, payload, func(out io.Writer) error {
		if err := writeU32(out, uint32(ds.N)); err != nil {
			return err
		}
		if err := writeU32(out, uint32(ds.D)); err != nil {
			return err
		}
		return writeFloats(out, ds.Data[:ds.N*ds.D])
	})
}

// AppendRemove journals a remove mutation and returns its sequence number.
func (w *WAL) AppendRemove(indices []int) (uint64, error) {
	if len(indices) == 0 {
		return 0, errors.New("persist: empty remove batch")
	}
	payload := 4 + 8*len(indices)
	return w.append(recRemove, payload, func(out io.Writer) error {
		if err := writeU32(out, uint32(len(indices))); err != nil {
			return err
		}
		var b [8]byte
		for _, i := range indices {
			le.PutUint64(b[:], uint64(int64(i)))
			if _, err := out.Write(b[:]); err != nil {
				return err
			}
		}
		return nil
	})
}

// append frames one record: header, payload (streamed through body), CRC
// trailer, then the policy's fsync. A failed append is rolled back.
func (w *WAL) append(typ byte, payloadLen int, body func(io.Writer) error) (_ uint64, err error) {
	if payloadLen > maxWALRecord {
		return 0, fmt.Errorf("persist: wal record of %d bytes exceeds the %d limit", payloadLen, maxWALRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	defer w.rollbackOnError(&err)
	seq := w.seq + 1
	cw := &crcWriter{w: w.bw}
	var hdr [walHeaderLen]byte
	le.PutUint32(hdr[0:4], uint32(payloadLen))
	hdr[4] = typ
	le.PutUint64(hdr[5:13], seq)
	if _, err := cw.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	if err := body(cw); err != nil {
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	if err := writeU32(w.bw, cw.crc); err != nil {
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("persist: wal sync: %w", err)
		}
	}
	w.seq = seq
	w.records++
	w.size += int64(walHeaderLen + payloadLen + 4)
	return seq, nil
}

// rollbackOnError drops a failed append (caller holds w.mu) — buffered bytes
// and whatever reached the file — so a record written whole but failing its
// fsync never replays, and bufio's sticky error does not wedge the log.
// Should the file keep the torn bytes (the truncate or seek fails too), the
// log fails every append until a Reset clears them: a record written behind
// a tear would be acknowledged yet never replayed.
func (w *WAL) rollbackOnError(err *error) {
	if *err == nil {
		return
	}
	w.bw.Reset(w.f)
	rerr := w.f.Truncate(w.size)
	if rerr == nil {
		_, rerr = w.f.Seek(w.size, io.SeekStart)
	}
	if rerr != nil {
		w.failed = fmt.Errorf("persist: wal holds a torn record until reset: %w", rerr)
		*err = fmt.Errorf("%w (rollback failed: %v)", *err, rerr)
	}
}

// Err is the log's failed state: non-nil while a torn record no rollback
// could remove refuses appends, until a Reset truncates it away.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Sync flushes buffered records and fsyncs the log — the interval policy's
// periodic call, also safe under the other policies.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("persist: wal sync: %w", err)
	}
	return w.f.Sync()
}

// Reset truncates the log back to its header after a checkpoint has folded
// its records in. The sequence counter is NOT reset — post-checkpoint
// records keep climbing past the checkpoint's sequence, which is how replay
// tells them apart.
//
// Reset deliberately does not flush first: every byte buffered (or already
// torn onto disk by a failed append) is superseded by the checkpoint, so
// the buffer is dropped and the writer reattached — which also clears
// bufio's sticky error, so a transient disk failure during an append
// cannot permanently wedge the checkpoint path that exists to recover
// from it.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bw.Reset(w.f)
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("persist: wal reset: %w", err)
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("persist: wal reset: %w", err)
	}
	w.size = int64(len(walMagic))
	w.records = 0
	w.failed = nil
	// The truncation invalidates every Tailer's file offset; bumping the
	// generation (after the truncate, still under the lock, and whether or
	// not the fsync below succeeds) makes them surface ErrWALReset instead
	// of reading past a moved tail.
	w.gen.Add(1)
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: wal reset: %w", err)
	}
	return nil
}

// SkipTo advances the sequence counter to at least seq without writing a
// record. Recovery uses it when the newest checkpoint's sequence exceeds
// the reopened log's (the log was truncated by that checkpoint, so a fresh
// scan starts from zero): new records must keep climbing past the
// checkpoint, or replay-from-checkpoint would skip them.
func (w *WAL) SkipTo(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.seq {
		w.seq = seq
	}
}

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("persist: wal close: %w", err)
	}
	return w.f.Close()
}

// Record is one replayed WAL mutation: exactly one of Batch (append) and
// Indices (remove) is non-nil.
type Record struct {
	Seq     uint64
	Batch   *pointset.Dataset
	Indices []int
}

// Target is the mutation surface a WAL replays into; both core.Session and
// the adawave facade Session satisfy it.
type Target interface {
	AppendContext(context.Context, *pointset.Dataset) error
	RemoveContext(context.Context, []int) error
}

// replayWAL streams the intact records with sequence numbers above fromSeq
// through fn, in order, reading at most limit bytes of the file (all of it
// when limit < 0). A torn or corrupt tail ends the replay silently — that is
// the crash-recovery contract: everything before the tear was applied, the
// tear itself never acknowledged. A missing file, or one torn before its
// magic, replays nothing. fn's errors abort the replay and are returned
// as-is. The returned lastSeq is the last intact record's sequence (0 for an
// empty or missing log); replayed counts the records handed to fn.
func replayWAL(fsys FS, path string, limit int64, fromSeq uint64, fn func(Record) error) (lastSeq uint64, replayed int, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("persist: replay wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("persist: replay wal: %w", err)
	}
	if limit < 0 || limit > st.Size() {
		limit = st.Size()
	}
	if limit < int64(len(walMagic)) {
		return 0, 0, nil
	}
	lastSeq, _, _, replayed, err = scanWAL(io.NewSectionReader(f, 0, limit), fromSeq, fn)
	return lastSeq, replayed, err
}

// ReplayInto replays the log at path, read-only through fsys, above fromSeq
// into a live session: appends re-fold, removes re-subtract. Only mutations
// that succeeded live are journaled, so an apply error here means the log
// and the session diverged — corruption — and aborts the recovery.
func ReplayInto(fsys FS, path string, fromSeq uint64, t Target) (lastSeq uint64, replayed int, err error) {
	return replayWAL(fsys, path, -1, fromSeq, applyTo(t))
}

// ReplayInto is the package ReplayInto over an open log's valid prefix:
// the residue of an append it could not roll back (see Err) is never
// replayed.
func (w *WAL) ReplayInto(fromSeq uint64, t Target) (lastSeq uint64, replayed int, err error) {
	return replayWAL(w.fs, w.path, w.Size(), fromSeq, applyTo(t))
}

func applyTo(t Target) func(Record) error {
	return func(rec Record) error {
		if rec.Batch != nil {
			return t.AppendContext(context.Background(), rec.Batch)
		}
		return t.RemoveContext(context.Background(), rec.Indices)
	}
}

// scanWAL validates the magic and walks records until the first torn or
// corrupt one, returning the last intact sequence, the byte offset of the
// valid prefix, and the intact record count. Records with Seq > fromSeq are
// handed to fn (when non-nil); fn errors abort the scan. Crash recovery
// (OpenWAL, ReplayInto) treats whatever follows the valid prefix as the
// unacknowledged tail and discards it; the replication stream readers
// (ReadFrame, ParseFrame) instead surface a tear as a TornRecordError, so a
// follower is told its stream is incomplete rather than silently short.
func scanWAL(r io.Reader, fromSeq uint64, fn func(Record) error) (lastSeq uint64, validOff int64, records uint64, applied int, err error) {
	if seeker, ok := r.(io.Seeker); ok {
		if _, err := seeker.Seek(0, io.SeekStart); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("persist: scan wal: %w", err)
		}
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("persist: wal too short for magic: %w", err)
	}
	if string(magic) != walMagic {
		return 0, 0, 0, 0, fmt.Errorf("persist: bad wal magic %q", magic)
	}
	validOff = int64(len(walMagic))
	var payload []byte
	for {
		var hdr [walHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// A clean end, or a torn header.
			return lastSeq, validOff, records, applied, nil
		}
		length := le.Uint32(hdr[0:4])
		typ := hdr[4]
		seq := le.Uint64(hdr[5:13])
		if length > maxWALRecord || (typ != recAppend && typ != recRemove) || seq <= lastSeq {
			return lastSeq, validOff, records, applied, nil
		}
		// Read the payload in bounded chunks so a corrupt length that
		// passed the cap still only allocates what the file really holds.
		payload = payload[:0]
		for read := 0; read < int(length); {
			n := int(length) - read
			if n > 1<<16 {
				n = 1 << 16
			}
			if cap(payload) < read+n {
				payload = append(payload[:read], make([]byte, n)...)[:read]
			}
			if _, err := io.ReadFull(br, payload[read:read+n]); err != nil {
				return lastSeq, validOff, records, applied, nil
			}
			payload = payload[:read+n]
			read += n
		}
		wantCRC, err := readU32(br)
		if err != nil {
			return lastSeq, validOff, records, applied, nil
		}
		crc := crc32.Update(0, castagnoli, hdr[:])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != wantCRC {
			return lastSeq, validOff, records, applied, nil
		}
		rec, ok := parseRecord(typ, seq, payload)
		if !ok {
			return lastSeq, validOff, records, applied, nil
		}
		lastSeq = seq
		validOff += int64(walHeaderLen + int(length) + 4)
		records++
		if fn != nil && seq > fromSeq {
			if err := fn(rec); err != nil {
				return lastSeq, validOff, records, applied, err
			}
			applied++
		}
	}
}

// parseRecord decodes one payload; a shape that disagrees with the record
// length is malformed. All shape arithmetic stays in uint64 against the
// actual payload size: n·d (two uint32s) can wrap any int product, and a
// wrapped check would admit a crafted tiny record whose declared shape then
// provokes a giant allocation — the overflow class ReadSnapshot guards
// against, applied here too.
func parseRecord(typ byte, seq uint64, payload []byte) (Record, bool) {
	switch typ {
	case recAppend:
		if len(payload) < 8 {
			return Record{}, false
		}
		n := uint64(le.Uint32(payload[0:4]))
		d := uint64(le.Uint32(payload[4:8]))
		// n, d < 2^32, so n*d < 2^64 never wraps; it must match the floats
		// the payload really carries, which maxWALRecord keeps small.
		if n < 1 || d < 1 || (uint64(len(payload))-8)%8 != 0 || n*d != (uint64(len(payload))-8)/8 {
			return Record{}, false
		}
		data := make([]float64, int(n*d))
		for i := range data {
			data[i] = math.Float64frombits(le.Uint64(payload[8+8*i:]))
		}
		return Record{Seq: seq, Batch: &pointset.Dataset{Data: data, N: int(n), D: int(d)}}, true
	case recRemove:
		if len(payload) < 4 {
			return Record{}, false
		}
		k := uint64(le.Uint32(payload[0:4]))
		if k < 1 || (uint64(len(payload))-4)%8 != 0 || k != (uint64(len(payload))-4)/8 {
			return Record{}, false
		}
		idx := make([]int, int(k))
		for i := range idx {
			idx[i] = int(int64(le.Uint64(payload[4+8*i:])))
		}
		return Record{Seq: seq, Indices: idx}, true
	}
	return Record{}, false
}

// writeFloats streams a float64 slice in little-endian without one giant
// intermediate buffer.
func writeFloats(w io.Writer, data []float64) error {
	var buf [8 << 10]byte
	for off := 0; off < len(data); {
		n := len(data) - off
		if n > len(buf)/8 {
			n = len(buf) / 8
		}
		for i := 0; i < n; i++ {
			le.PutUint64(buf[8*i:], math.Float64bits(data[off+i]))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}
