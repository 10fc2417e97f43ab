package cluster

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"adawave"
	"adawave/internal/core"
	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/persist"
)

// The session-directory layout (config.json / tenant / checkpoint-<seq>.awc
// / wal.log) is shared between the serving layer's own recovery and the
// replication path: a follower journals replicated sessions into the exact
// same shape, so a promoted follower's directories are indistinguishable
// from ones the node created itself. The helpers here are that layout's
// single source of truth; cmd/adawave-serve delegates to them.

const (
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".awc"
)

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

// NewestCheckpoint returns the newest checkpoint file in a session
// directory and the sequence it folds in; ok is false when none exists.
func NewestCheckpoint(dir string) (path string, seq uint64, ok bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, false
	}
	for _, e := range entries {
		if s, isCkpt := CheckpointSeqOf(e.Name()); isCkpt && (!ok || s > seq) {
			path, seq, ok = filepath.Join(dir, e.Name()), s, true
		}
	}
	return path, seq, ok
}

// ConfigFromMeta rebuilds the adawave.Config a recovered or replicated
// session runs under, then verifies it re-renders to exactly the stored
// fingerprint through core.ConfigFingerprint — the same canonical renderer
// session creation and checkpointing use — so neither the serving layer nor
// a follower can drift from the checkpoint format. Only threshold
// strategies the server can create (the default) are restorable.
func ConfigFromMeta(m persist.ConfigMeta) (adawave.Config, error) {
	cfg := adawave.DefaultConfig()
	cfg.Scale = m.Scale
	cfg.Levels = m.Levels
	basis, err := adawave.BasisByName(m.Basis)
	if err != nil {
		return cfg, err
	}
	cfg.Basis = basis
	switch m.Connectivity {
	case "faces":
		cfg.Connectivity = grid.Faces
	case "full":
		cfg.Connectivity = grid.Full
	default:
		return cfg, fmt.Errorf("unknown connectivity %q", m.Connectivity)
	}
	cfg.CoeffEpsilon = m.CoeffEpsilon
	cfg.MinClusterCells = m.MinClusterCells
	cfg.MinClusterMass = m.MinClusterMass
	if m.Embedding != "" {
		sp, err := embed.ParseSpec(m.Embedding)
		if err != nil {
			return cfg, err
		}
		cfg.Embedding = sp
	}
	if got := core.ConfigFingerprint(cfg); got != m {
		return cfg, fmt.Errorf("config fingerprint does not round-trip (stored %+v, rebuilt %+v)", m, got)
	}
	return cfg, nil
}

// SessionDisk is a recovered session's on-disk half: its directory, the
// reopened WAL (sequence counter resumed), and the sequence the newest
// restorable checkpoint folds in.
type SessionDisk struct {
	Dir     string
	WAL     *persist.WAL
	CkptSeq uint64
}

// LoadSessionDir recovers one session directory: fingerprint → engine
// config, newest restorable checkpoint → warm session, WAL tail replay
// (records above the checkpoint's sequence; a torn trailing record is
// discarded — the crash-recovery contract). It returns the live session
// ready to serve with its reopened WAL. Both boot-time recovery in
// cmd/adawave-serve and a restarting follower resume through this one path.
func LoadSessionDir(dir string, workers int, policy persist.SyncPolicy) (*adawave.Session, *SessionDisk, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, nil, err
	}
	var meta persist.ConfigMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, nil, fmt.Errorf("config.json: %w", err)
	}
	cfg, err := ConfigFromMeta(meta)
	if err != nil {
		return nil, nil, fmt.Errorf("config.json: %w", err)
	}
	clusterer, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(workers))
	if err != nil {
		return nil, nil, err
	}

	// Newest checkpoint first; on a restore failure fall back to older ones
	// (normally at most one exists — older files mean a crash interrupted
	// the post-checkpoint sweep).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type ckpt struct {
		name string
		seq  uint64
	}
	var ckpts []ckpt
	for _, e := range entries {
		if seq, ok := CheckpointSeqOf(e.Name()); ok {
			ckpts = append(ckpts, ckpt{e.Name(), seq})
		}
	}
	sort.Slice(ckpts, func(a, b int) bool { return ckpts[a].seq > ckpts[b].seq })

	var sess *adawave.Session
	var ckptSeq, newestSeq uint64
	if len(ckpts) > 0 {
		newestSeq = ckpts[0].seq
	}
	for _, c := range ckpts {
		f, err := os.Open(filepath.Join(dir, c.name))
		if err != nil {
			continue
		}
		restored, rerr := clusterer.RestoreSession(f)
		f.Close()
		if rerr != nil {
			log.Printf("cluster: checkpoint %s unrestorable: %v", c.name, rerr)
			continue
		}
		sess, ckptSeq = restored, c.seq
		break
	}
	if sess == nil {
		// No (restorable) checkpoint: an empty session replays the whole log.
		sess = clusterer.NewSession()
	}

	walPath := filepath.Join(dir, "wal.log")
	lastSeq, _, err := persist.ReplayInto(walPath, ckptSeq, sess)
	if err != nil {
		return nil, nil, fmt.Errorf("wal replay: %w", err)
	}
	// If recovery had to fall back past the newest checkpoint (it existed
	// but would not restore), the WAL must still cover every sequence the
	// newest checkpoint had folded in — otherwise mutations this node
	// acknowledged are gone, and serving the stale state as if it were
	// current would be a silent data loss. Refuse instead; the directory is
	// left untouched for inspection.
	if ckptSeq < newestSeq && lastSeq < newestSeq {
		return nil, nil, fmt.Errorf("newest checkpoint (seq %d) unrestorable and wal ends at seq %d: acknowledged state missing", newestSeq, lastSeq)
	}
	wal, err := persist.OpenWAL(walPath, policy)
	if err != nil {
		return nil, nil, err
	}
	// A fresh log (no checkpoint, no records — or a log orphaned by a
	// crash before its first record) must not restart sequences below an
	// existing checkpoint's.
	wal.SkipTo(ckptSeq)
	return sess, &SessionDisk{Dir: dir, WAL: wal, CkptSeq: ckptSeq}, nil
}
