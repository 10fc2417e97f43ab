package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"adawave"
	"adawave/internal/cluster"
	"adawave/internal/persist"
	"adawave/internal/pointset"
	"adawave/internal/sched"
)

// Durable session storage. With -data-dir set, every session owns one
// directory under <data-dir>/sessions/<id>/:
//
//	config.json          the session's configuration fingerprint
//	checkpoint-<seq>.awc newest full-state checkpoint; <seq> is the last
//	                     WAL sequence number it folds in
//	wal.log              write-ahead log of mutations after that sequence
//
// Every acknowledged mutation is journaled to the WAL after it applies (only
// successful mutations are logged, so replay can never fail on a valid log).
// A checkpoint — background, admin-triggered, or the fallback when a WAL
// write fails — serializes the full session under the per-session writer
// lock to a temp file, fsyncs, renames it into place and truncates the WAL.
// Boot-time recovery walks the session directories: newest restorable
// checkpoint, then the WAL tail with sequences above the checkpoint's,
// discarding any torn trailing record. Because AdaWave's grid masses are
// additive, each replayed batch folds into the restored grid by one
// O(cells) merge, and the recovered session's labels are bit-identical to
// the uninterrupted session's.

// errDurability tags mutation failures caused by the persistence layer (WAL
// append and the checkpoint fallback both failed): the handler answers 500,
// not a 4xx that would blame the client.
var errDurability = errors.New("durability failure")

// persistence is the server-wide durable-storage root.
type persistence struct {
	root   string
	policy persist.SyncPolicy
}

func openPersistence(dir string, policy persist.SyncPolicy) (*persistence, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	return &persistence{root: dir, policy: policy}, nil
}

func (p *persistence) sessionDir(id string) string {
	return filepath.Join(p.root, "sessions", id)
}

// sessionFiles is one session's on-disk state. All fields are guarded by
// the owning serveSession's writer lock, with two exceptions: the WAL
// additionally locks itself (so the background fsync ticker may call
// wal.Sync concurrently), and ckptSeq is atomic so the read-only detail
// endpoint can report it without queueing behind a long mutation.
type sessionFiles struct {
	dir     string
	wal     *persist.WAL
	ckptSeq atomic.Uint64 // sequence covered by the newest on-disk checkpoint
	broken  bool          // double durability failure: mutations refused
}

// create provisions the directory, fingerprint, tenant marker and WAL of a
// new session. The tenant lives in its own small file — not in config.json,
// whose contents are the engine-config fingerprint and must round-trip
// through core.ConfigFingerprint byte for byte.
func (p *persistence) create(id string, meta persist.ConfigMeta, tenant string) (*sessionFiles, error) {
	dir := p.sessionDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "config.json"), cfg, 0o644); err != nil {
		return nil, err
	}
	if tenant != "" && tenant != sched.DefaultTenant {
		if err := os.WriteFile(filepath.Join(dir, "tenant"), []byte(tenant+"\n"), 0o644); err != nil {
			return nil, err
		}
	}
	wal, err := persist.OpenWAL(filepath.Join(dir, "wal.log"), p.policy)
	if err != nil {
		return nil, err
	}
	return &sessionFiles{dir: dir, wal: wal}, nil
}

// tenantOf reads a session directory's tenant marker; absence (all sessions
// predating multi-tenancy, and default-tenant sessions, which write none)
// means the default tenant.
func tenantOf(dir string) string {
	raw, err := os.ReadFile(filepath.Join(dir, "tenant"))
	if err != nil {
		return sched.DefaultTenant
	}
	if t := strings.TrimSpace(string(raw)); t != "" {
		return t
	}
	return sched.DefaultTenant
}

// configFromMeta rebuilds the adawave.Config a recovered session runs
// under; the session-directory layout and its fingerprint round-trip check
// live in internal/cluster, shared with the replication path.
func configFromMeta(m persist.ConfigMeta) (adawave.Config, error) {
	return cluster.ConfigFromMeta(m)
}

// journalAppend logs an acknowledged append. On a WAL failure it falls back
// to an immediate checkpoint (which captures the batch and truncates the
// log); only a double failure is reported, tagged errDurability.
func (ss *serveSession) journalAppend(ds *pointset.Dataset) error {
	if ss.files == nil || ds.N == 0 {
		return nil
	}
	if ss.files.broken {
		return fmt.Errorf("%w: session storage needs a successful checkpoint", errDurability)
	}
	if _, err := ss.files.wal.AppendBatch(ds); err != nil {
		return ss.checkpointFallback(err)
	}
	return nil
}

// journalRemove is journalAppend for removals.
func (ss *serveSession) journalRemove(indices []int) error {
	if ss.files == nil || len(indices) == 0 {
		return nil
	}
	if ss.files.broken {
		return fmt.Errorf("%w: session storage needs a successful checkpoint", errDurability)
	}
	if _, err := ss.files.wal.AppendRemove(indices); err != nil {
		return ss.checkpointFallback(err)
	}
	return nil
}

// checkpointFallback tries to re-establish durability after a WAL write
// failed; a second failure marks the session broken (mutations are refused
// until an admin-triggered checkpoint succeeds).
func (ss *serveSession) checkpointFallback(walErr error) error {
	if _, err := ss.checkpointLocked(); err != nil {
		ss.files.broken = true
		return fmt.Errorf("%w: wal append: %v; checkpoint fallback: %v", errDurability, walErr, err)
	}
	log.Printf("adawave-serve: wal append failed (%v); state captured by fallback checkpoint", walErr)
	return nil
}

// checkpointLocked writes a full checkpoint and truncates the WAL. The
// caller holds the writer lock and the session is resident. On success the
// session's storage is healthy again.
func (ss *serveSession) checkpointLocked() (seq uint64, err error) {
	sess := ss.live.Load()
	if sess == nil {
		return 0, errors.New("checkpoint of an evicted session")
	}
	fl := ss.files
	seq = fl.wal.Seq()
	tmp := filepath.Join(fl.dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := sess.CheckpointContext(context.Background(), f); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	final := filepath.Join(fl.dir, ckptName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(fl.dir)
	// The WAL's records are all ≤ seq now; truncate. A crash between the
	// rename and this truncation is safe: replay skips records ≤ seq.
	if err := fl.wal.Reset(); err != nil {
		return 0, err
	}
	// Older checkpoints are strictly dominated; sweep them.
	if entries, err := os.ReadDir(fl.dir); err == nil {
		for _, e := range entries {
			if s, ok := ckptSeqOf(e.Name()); ok && s != seq {
				os.Remove(filepath.Join(fl.dir, e.Name()))
			}
		}
	}
	fl.ckptSeq.Store(seq)
	fl.broken = false
	return seq, nil
}

func ckptName(seq uint64) string { return cluster.CheckpointFileName(seq) }

func ckptSeqOf(name string) (uint64, bool) { return cluster.CheckpointSeqOf(name) }

// syncDir fsyncs a directory so a just-renamed checkpoint survives power
// loss; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// loadSessionDir recovers one session directory through the shared layout
// code in internal/cluster (fingerprint → engine, newest restorable
// checkpoint → warm session, WAL tail replay with the torn trailing record
// discarded), adapting the result to the serving layer's sessionFiles.
func loadSessionDir(dir string, workers int, policy persist.SyncPolicy) (*adawave.Session, *sessionFiles, error) {
	sess, disk, err := cluster.LoadSessionDir(dir, workers, policy)
	if err != nil {
		return nil, nil, err
	}
	files := &sessionFiles{dir: disk.Dir, wal: disk.WAL}
	files.ckptSeq.Store(disk.CkptSeq)
	return sess, files, nil
}

// recoverSessions restores every session directory under the root,
// returning the live sessions and the highest numeric id seen (so new ids
// never collide with recovered or unrecoverable ones). A directory that
// fails to recover is logged and left untouched for inspection.
func (p *persistence) recoverSessions(workers int) (map[string]*serveSession, uint64) {
	out := make(map[string]*serveSession)
	var maxID uint64
	root := filepath.Join(p.root, "sessions")
	entries, err := os.ReadDir(root)
	if err != nil {
		return out, 0
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			// Dot-dirs hold quarantined replica state (see
			// internal/cluster), never live sessions.
			continue
		}
		id := e.Name()
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
		dir := filepath.Join(root, id)
		sess, files, err := loadSessionDir(dir, workers, p.policy)
		if err != nil {
			log.Printf("adawave-serve: session %s not recovered: %v", id, err)
			continue
		}
		out[id] = newServeSession(id, tenantOf(dir), sess, files, workers)
		log.Printf("adawave-serve: recovered session %s (%d points, wal seq %d)", id, sess.Len(), files.wal.Seq())
	}
	return out, maxID
}
