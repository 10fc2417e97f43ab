package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"

	"adawave/internal/cluster"
	"adawave/internal/persist"
	"adawave/internal/pointset"
)

// Durable session storage: with -data-dir set, every session owns a
// cluster.SessionDir (layout and recovery contract in its doc comment).

// errDurability tags mutation failures caused by the persistence layer (WAL
// append and the checkpoint fallback both failed): the handler answers 500,
// not a 4xx that would blame the client.
var errDurability = errors.New("durability failure")

// sessionFiles is one session's durable state, guarded by the owning
// serveSession's writer lock (the SessionDir's WAL and checkpoint sequence
// may also be read concurrently; see cluster.SessionDir).
type sessionFiles struct {
	*cluster.SessionDir
	broken bool // double durability failure: mutations refused
}

// journal logs an acknowledged mutation through write. On a WAL failure it
// falls back to an immediate checkpoint (which captures the mutation and
// truncates the log); only a double failure is reported, tagged
// errDurability.
func (ss *serveSession) journal(empty bool, write func(*persist.WAL) (uint64, error)) error {
	if ss.files == nil || empty {
		return nil
	}
	if ss.files.broken {
		return fmt.Errorf("%w: session storage needs a successful checkpoint", errDurability)
	}
	if _, err := write(ss.files.WAL()); err != nil {
		return ss.checkpointFallback(err)
	}
	return nil
}

func (ss *serveSession) journalAppend(ds *pointset.Dataset) error {
	return ss.journal(ds.N == 0, func(w *persist.WAL) (uint64, error) { return w.AppendBatch(ds) })
}

func (ss *serveSession) journalRemove(indices []int) error {
	return ss.journal(len(indices) == 0, func(w *persist.WAL) (uint64, error) { return w.AppendRemove(indices) })
}

// checkpointFallback tries to re-establish durability after a WAL write
// failed; a second failure marks the session broken (mutations are refused
// until an admin-triggered checkpoint succeeds). The mutation has no WAL
// record, so the checkpoint capturing it takes a sequence of its own: it
// replaces no earlier checkpoint, and a follower subscribed at the old
// sequence is sent to re-sync instead of silently missing the mutation.
func (ss *serveSession) checkpointFallback(walErr error) error {
	wal := ss.files.WAL()
	wal.SkipTo(wal.Seq() + 1)
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
	seq = ss.files.WAL().Seq()
	if err := ss.files.Checkpoint(seq, func(w io.Writer) error {
		return sess.CheckpointContext(context.Background(), w)
	}); err != nil {
		return 0, err
	}
	ss.files.broken = false
	return seq, nil
}
