package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"adawave"
	"adawave/internal/persist"
	"adawave/internal/sched"
)

// SessionDir is one session's durable state: the directory
// <data-dir>/sessions/<id>/ and the WAL open inside it. It is the single
// implementation of the on-disk session layout, shared by the serving
// layer's own sessions and a follower's replicas — a follower journals
// replicated sessions into exactly this shape, so a promoted follower's
// directories are indistinguishable from ones the node created itself:
//
//	config.json          the session's configuration fingerprint
//	tenant               the owning tenant; absent for the default tenant
//	checkpoint-<seq>.awc newest full-state checkpoint; <seq> is the last
//	                     WAL sequence number it folds in
//	wal.log              write-ahead log of mutations after that sequence
//
// Every acknowledged mutation is journaled to the WAL after it applies (only
// successful mutations are logged, so replay can never fail on a valid log).
// Every other file is written atomically: staged in checkpoint.tmp, fsynced,
// closed with its error checked, renamed into place, then the directory
// fsynced. A checkpoint then truncates the WAL and sweeps older checkpoints.
// Recovery takes the newest restorable checkpoint, then replays the WAL tail
// above its sequence, discarding a torn trailing record. Because AdaWave's
// grid masses are additive, each replayed batch folds in by one O(cells)
// merge, and the recovered labels are bit-identical to the uninterrupted
// session's.
//
// The owner serializes Checkpoint, Drop and WAL appends (the serving layer's
// writer lock, a replica's apply lock); the WAL locks itself for concurrent
// fsync tickers and Tailers, and CheckpointSeq is atomic.
type SessionDir struct {
	root    *SessionRoot
	id      string
	path    string
	meta    persist.ConfigMeta
	tenant  string
	wal     *persist.WAL
	ckptSeq atomic.Uint64
}

const (
	configFile    = "config.json"
	tenantFile    = "tenant"
	walFile       = "wal.log"
	tmpFile       = "checkpoint.tmp" // staging name of every atomic write
	quarantineDir = ".quarantine"
	ckptPrefix    = "checkpoint-"
	ckptSuffix    = ".awc"
)

// SessionRoot owns <data-dir>/sessions/: it creates session directories,
// recovers them at boot and parks dropped replicas under .quarantine/, all
// through one persist.FS.
type SessionRoot struct {
	path   string
	policy persist.SyncPolicy
	fs     persist.FS
}

// OpenSessionRoot opens (creating if absent) <dataDir>/sessions. fsys is
// persist.OS outside tests; policy is the WAL fsync policy of every session.
func OpenSessionRoot(fsys persist.FS, dataDir string, policy persist.SyncPolicy) (*SessionRoot, error) {
	path := filepath.Join(dataDir, "sessions")
	if err := fsys.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	return &SessionRoot{path: path, policy: policy, fs: fsys}, nil
}

// Path is the sessions root, <data-dir>/sessions.
func (r *SessionRoot) Path() string { return r.path }

func (r *SessionRoot) dir(id string) *SessionDir {
	return &SessionDir{root: r, id: id, path: filepath.Join(r.path, id), tenant: sched.DefaultTenant}
}

// Create provisions a session directory — fingerprint, tenant marker, empty
// WAL — durable before it returns. The directory must not exist yet: an id
// already on disk (a racing create, or a directory boot recovery left for
// inspection) fails with an error matching fs.ErrExist and is left
// untouched. Any later failure drops the directory this call made, leaving
// no trace. The tenant has its own file because config.json must
// round-trip through core.ConfigFingerprint byte for byte.
func (r *SessionRoot) Create(id string, meta persist.ConfigMeta, tenant string) (_ *SessionDir, err error) {
	d := r.dir(id)
	d.meta = meta
	if tenant != "" {
		d.tenant = tenant
	}
	fsys := r.fs
	if err := fsys.Mkdir(d.path, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.Drop()
		}
	}()
	cfg, err := json.MarshalIndent(d.meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := d.writeAtomic(configFile, writeBytes(cfg)); err != nil {
		return nil, err
	}
	if d.tenant != sched.DefaultTenant {
		if err := d.writeAtomic(tenantFile, writeBytes([]byte(d.tenant+"\n"))); err != nil {
			return nil, err
		}
	}
	if d.wal, err = persist.OpenWALFS(fsys, d.file(walFile), r.policy); err != nil {
		return nil, err
	}
	// The WAL's entry in the session directory, and the session's in the root.
	if err := flushDir(fsys, d.path); err != nil {
		return nil, err
	}
	if err := flushDir(fsys, r.path); err != nil {
		return nil, err
	}
	return d, nil
}

// RecoverAll recovers every session directory under the root. names lists
// every directory walked, recovered or not, so minted ids never collide
// with one left on disk. A directory that fails to recover is logged and
// left for inspection; dot-dirs (quarantined state) are skipped.
func (r *SessionRoot) RecoverAll(workers int) (live []Promoted, names []string) {
	entries, err := r.fs.ReadDir(r.path)
	if err != nil {
		return nil, nil
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
		d := r.dir(e.Name())
		sess, err := d.Recover(workers)
		if err != nil {
			log.Printf("cluster: session %s not recovered: %v", d.id, err)
			continue
		}
		live = append(live, Promoted{Dir: d, Session: sess})
		log.Printf("cluster: session %s recovered (%d points, wal seq %d)", d.id, sess.Len(), d.wal.Seq())
	}
	return live, names
}

// Quarantine closes a dropped replica's WAL and moves its directory under
// .quarantine/, returning where it went; reclaiming the space — or the
// data — is an operator decision.
func (r *SessionRoot) Quarantine(d *SessionDir) (string, error) {
	if d.wal != nil {
		d.wal.Close()
	}
	trash := filepath.Join(r.path, quarantineDir)
	if err := r.fs.MkdirAll(trash, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(trash, d.id)
	for i := 1; ; i++ {
		if _, err := r.fs.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(trash, fmt.Sprintf("%s.%d", d.id, i))
	}
	return dst, r.fs.Rename(d.path, dst)
}

// ID is the session id, the directory's name.
func (d *SessionDir) ID() string { return d.id }

// Tenant is the owning tenant; sessions without a marker belong to
// sched.DefaultTenant.
func (d *SessionDir) Tenant() string { return d.tenant }

// Meta is the configuration fingerprint stored in config.json.
func (d *SessionDir) Meta() persist.ConfigMeta { return d.meta }

// WAL is the session's open write-ahead log.
func (d *SessionDir) WAL() *persist.WAL { return d.wal }

// CheckpointSeq is the WAL sequence the newest checkpoint folds in.
func (d *SessionDir) CheckpointSeq() uint64 { return d.ckptSeq.Load() }

// Checkpoint makes write's output the newest checkpoint, folding in the WAL
// up to seq, and returns nil once it is durably in place. A failed
// checkpoint leaves no new file: it may hold a mutation its caller is about
// to refuse. The WAL reset and sweep that follow only reclaim space (replay
// skips records ≤ seq), so their failures are logged; a log whose reset
// fails keeps refusing appends while it holds a torn record (persist.WAL.Err),
// and the next checkpoint retries the reset. An empty, healthy log (a
// follower provisioning from a fetched checkpoint) is not reset; the WAL's
// sequence resumes above seq either way.
func (d *SessionDir) Checkpoint(seq uint64, write func(io.Writer) error) error {
	name := CheckpointFileName(seq)
	if err := d.writeAtomic(name, write); err != nil {
		if seq != d.ckptSeq.Load() {
			d.root.fs.RemoveAll(d.file(name))
		}
		return err
	}
	if d.wal.Records() > 0 || d.wal.Err() != nil {
		if err := d.wal.Reset(); err != nil {
			log.Printf("cluster: session %s: %v", d.id, err)
		}
	}
	d.wal.SkipTo(seq)
	if seqs, err := d.checkpoints(); err == nil {
		for _, s := range seqs {
			if s != seq {
				d.root.fs.RemoveAll(d.file(CheckpointFileName(s)))
			}
		}
	}
	d.ckptSeq.Store(seq)
	return nil
}

// OpenCheckpoint opens the newest checkpoint and returns the sequence it
// folds in (a nil File if none). The open races the post-checkpoint sweep,
// so a vanished file is retried against the then-newest one.
func (d *SessionDir) OpenCheckpoint() (persist.File, uint64, error) {
	for attempt := 0; attempt < 4; attempt++ {
		seqs, err := d.checkpoints()
		if err != nil || len(seqs) == 0 {
			return nil, 0, err
		}
		f, err := d.root.fs.OpenFile(d.file(CheckpointFileName(seqs[0])), os.O_RDONLY, 0)
		if !errors.Is(err, fs.ErrNotExist) {
			return f, seqs[0], err
		}
	}
	return nil, 0, errors.New("cluster: checkpoint kept being replaced; retry")
}

// Recover brings the session back: fingerprint → engine config, newest
// restorable checkpoint → warm session, WAL tail replay, WAL left open.
func (d *SessionDir) Recover(workers int) (*adawave.Session, error) {
	fsys := d.root.fs
	raw, err := readFile(fsys, d.file(configFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &d.meta); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	cfg, err := ConfigFromMeta(d.meta)
	if err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	c, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	if raw, err := readFile(fsys, d.file(tenantFile)); err == nil && strings.TrimSpace(string(raw)) != "" {
		d.tenant = strings.TrimSpace(string(raw))
	}

	// Newest checkpoint first, falling back to older ones (left by a crash
	// before the sweep); with none restorable, replay the whole log.
	seqs, err := d.checkpoints()
	if err != nil {
		return nil, err
	}
	sess, ckptSeq := c.NewSession(), uint64(0)
	for _, seq := range seqs {
		restored, err := d.Restore(c, seq)
		if err == nil {
			sess, ckptSeq = restored, seq
			break
		}
		log.Printf("cluster: session %s: checkpoint seq %d unrestorable: %v", d.id, seq, err)
	}
	// Replay read-only first: a directory refused below reaches the operator
	// exactly as it was found.
	lastSeq, _, err := persist.ReplayInto(fsys, d.file(walFile), ckptSeq, sess)
	if err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	if len(seqs) > 0 && ckptSeq < seqs[0] && lastSeq < seqs[0] {
		// Recovery fell back past the newest checkpoint and the WAL does not
		// cover it: acknowledged mutations are gone, and serving the stale
		// state would be a silent data loss. Refuse.
		return nil, fmt.Errorf("newest checkpoint (seq %d) unrestorable and wal ends at seq %d: acknowledged state missing", seqs[0], lastSeq)
	}
	// Opening the log truncates a torn trailing record — the signature of a
	// crash mid-append, never acknowledged.
	wal, err := persist.OpenWALFS(fsys, d.file(walFile), d.root.policy)
	if err != nil {
		return nil, err
	}
	// A fresh or orphaned log must not restart sequences below a checkpoint.
	wal.SkipTo(ckptSeq)
	d.wal = wal
	d.ckptSeq.Store(ckptSeq)
	return sess, nil
}

// Reload rebuilds the session from its durable state — the checkpoint at
// CheckpointSeq plus the WAL tail above it — leaving the open log as it is.
// It is how an evicted session comes back, and how a mutation that applied
// in memory but could not be made durable is undone.
func (d *SessionDir) Reload(c *adawave.Clusterer) (*adawave.Session, error) {
	seq := d.CheckpointSeq()
	sess, err := d.Restore(c, seq)
	if seq == 0 && errors.Is(err, fs.ErrNotExist) {
		sess, err = c.NewSession(), nil // never checkpointed: the WAL is the whole history
	}
	if err != nil {
		return nil, err
	}
	if _, _, err := d.wal.ReplayInto(seq, sess); err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	return sess, nil
}

// Drop deletes the session's durable state: the WAL is closed and the
// directory removed.
func (d *SessionDir) Drop() error {
	if d.wal != nil {
		d.wal.Close()
	}
	return d.root.fs.RemoveAll(d.path)
}

func (d *SessionDir) file(name string) string { return filepath.Join(d.path, name) }

// writeAtomic replaces name: staged in tmpFile, fsynced, closed with its
// error checked, renamed, directory fsynced. A failure before the rename
// leaves name untouched and no staging file behind.
func (d *SessionDir) writeAtomic(name string, write func(io.Writer) error) error {
	fsys := d.root.fs
	tmp := d.file(tmpFile)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, d.file(name))
	}
	if err != nil {
		fsys.RemoveAll(tmp)
		return err
	}
	return flushDir(fsys, d.path)
}

// Restore rebuilds a session from the checkpoint folding in seq.
func (d *SessionDir) Restore(c *adawave.Clusterer, seq uint64) (*adawave.Session, error) {
	f, err := d.root.fs.OpenFile(d.file(CheckpointFileName(seq)), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return c.RestoreSession(f)
}

// checkpoints lists the directory's checkpoint sequences, newest first.
func (d *SessionDir) checkpoints() ([]uint64, error) {
	entries, err := d.root.fs.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := CheckpointSeqOf(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] > seqs[b] })
	return seqs, nil
}

// CheckpointFileName renders a checkpoint file name for the WAL sequence it
// folds in; the fixed-width rendering keeps lexical and numeric order
// aligned.
func CheckpointFileName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, seq, ckptSuffix)
}

// CheckpointSeqOf parses a checkpoint file name back to its sequence.
func CheckpointSeqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// flushDir fsyncs a directory so its new entries survive power loss; a
// filesystem that cannot sync directories (EINVAL) counts as synced.
func flushDir(fsys persist.FS, path string) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if errors.Is(err, syscall.EINVAL) {
		err = nil
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readFile(fsys persist.FS, path string) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}
