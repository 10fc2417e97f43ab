package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/persist"
)

// ReplicaOptions configures a follower's replication engine.
type ReplicaOptions struct {
	// Primary is the base URL of the node to replicate from.
	Primary string
	// Root is the local sessions root (<data-dir>/sessions); replicated
	// sessions are journaled there in the exact layout the serving layer's
	// own recovery reads.
	Root    string
	Workers int
	Policy  persist.SyncPolicy
	// Client performs the HTTP calls. It must not carry a global Timeout —
	// the WAL stream is long-lived by design; per-call deadlines are set
	// through contexts. Nil selects a default client.
	Client *http.Client
	// Poll is the session-list poll cadence (default 1s): how fast new
	// primary sessions are discovered and the lag measurement refreshes.
	Poll time.Duration
	// Retry is the reconnect backoff after a failed or torn stream
	// (default 500ms).
	Retry time.Duration
	// Secret is the shared cluster credential sent on every request to the
	// primary's replication feed (see api.HeaderClusterSecret); empty sends
	// none.
	Secret string
	// CheckpointEvery bounds the local WAL: after this many journaled
	// frames the replica folds them into a local checkpoint (default 8192;
	// negative disables).
	CheckpointEvery int
}

// ReplicaSet replicates every session of one primary into warm local
// state: per session, an in-memory adawave.Session kept current by applying
// streamed WAL frames, and an on-disk journal of the same frames — so a
// promote is a map handoff, not a cold recovery, and a follower crash
// restarts from its own disk.
type ReplicaSet struct {
	opts ReplicaOptions

	mu       sync.Mutex
	replicas map[string]*Replica

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	stopOnce sync.Once
	promoted atomic.Bool
}

// Replica is one replicated session.
type Replica struct {
	ID     string
	Tenant string

	dir       string
	workers   int
	policy    persist.SyncPolicy
	ckptEvery int
	meta      persist.ConfigMeta
	cfg       adawave.Config

	// mu guards the apply path (session mutation + journal) and the
	// promote handoff; the session object itself stays safe for concurrent
	// readers (status, detail reads) while the applier holds mu.
	mu      sync.Mutex
	sess    *adawave.Session
	wal     *persist.WAL
	ckptSeq uint64

	applied    atomic.Uint64
	primarySeq atomic.Uint64
	connected  atomic.Bool
	lastErr    atomic.Value // string

	cancel context.CancelFunc
}

// Promoted is one warm session handed from a promoted ReplicaSet to the
// serving registry: the live engine object plus its on-disk state, ready to
// serve mutations and labels immediately.
type Promoted struct {
	ID      string
	Tenant  string
	Config  adawave.Config
	Session *adawave.Session
	Disk    *SessionDisk
}

// NewReplicaSet builds (but does not start) a follower engine.
func NewReplicaSet(opts ReplicaOptions) *ReplicaSet {
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Poll <= 0 {
		opts.Poll = time.Second
	}
	if opts.Retry <= 0 {
		opts.Retry = 500 * time.Millisecond
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 8192
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &ReplicaSet{
		opts:     opts,
		replicas: make(map[string]*Replica),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// Start recovers any previously replicated sessions from disk (so a
// follower restarted after its primary died can still be promoted), then
// launches the discovery loop.
func (rs *ReplicaSet) Start() {
	rs.recoverLocal()
	rs.wg.Add(1)
	go rs.pollLoop()
}

// Stop ends discovery and every stream, and waits for them to exit. After
// Stop the replicas' state is quiescent — this is the first half of a
// promote.
func (rs *ReplicaSet) Stop() {
	rs.stopOnce.Do(rs.cancel)
	rs.wg.Wait()
}

// recoverLocal loads every session directory under Root into a warm
// replica (newest checkpoint + WAL tail, the standard recovery path).
func (rs *ReplicaSet) recoverLocal() {
	entries, err := os.ReadDir(rs.opts.Root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue // dot-dirs hold quarantined state, never live sessions
		}
		id := e.Name()
		dir := filepath.Join(rs.opts.Root, id)
		sess, disk, err := LoadSessionDir(dir, rs.opts.Workers, rs.opts.Policy)
		if err != nil {
			log.Printf("cluster: replica %s not recovered: %v", id, err)
			continue
		}
		r := &Replica{
			ID: id, Tenant: tenantOf(dir), dir: dir,
			workers: rs.opts.Workers, policy: rs.opts.Policy,
			ckptEvery: rs.opts.CheckpointEvery,
			sess:      sess, wal: disk.WAL, ckptSeq: disk.CkptSeq,
		}
		if raw, err := os.ReadFile(filepath.Join(dir, "config.json")); err == nil {
			_ = json.Unmarshal(raw, &r.meta)
		}
		r.cfg = sess.Config()
		r.applied.Store(disk.WAL.Seq())
		r.primarySeq.Store(disk.WAL.Seq())
		rs.replicas[id] = r
		rs.startReplica(r)
		log.Printf("cluster: replica %s recovered (%d points, applied seq %d)", id, sess.Len(), disk.WAL.Seq())
	}
}

// tenantOf reads a session directory's tenant marker; absence means the
// default tenant (the serving layer writes no marker for it).
func tenantOf(dir string) string {
	raw, err := os.ReadFile(filepath.Join(dir, "tenant"))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}

// pollLoop discovers primary sessions and refreshes the lag measurement.
func (rs *ReplicaSet) pollLoop() {
	defer rs.wg.Done()
	t := time.NewTicker(rs.opts.Poll)
	defer t.Stop()
	rs.pollOnce()
	for {
		select {
		case <-rs.ctx.Done():
			return
		case <-t.C:
			rs.pollOnce()
		}
	}
}

// feedRequest builds a GET against the primary's replication surface,
// attaching the shared cluster secret when one is configured.
func (rs *ReplicaSet) feedRequest(ctx context.Context, path string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.opts.Primary+path, nil)
	if err != nil {
		return nil, err
	}
	if rs.opts.Secret != "" {
		req.Header.Set(api.HeaderClusterSecret, rs.opts.Secret)
	}
	return req, nil
}

func (rs *ReplicaSet) pollOnce() {
	ctx, cancel := context.WithTimeout(rs.ctx, rs.opts.Poll*3+time.Second)
	defer cancel()
	req, err := rs.feedRequest(ctx, "/v1/replication/sessions")
	if err != nil {
		return
	}
	resp, err := rs.opts.Client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var list api.ReplicationSessionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return
	}
	listed := make(map[string]bool, len(list.Sessions))
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.ctx.Err() != nil {
		return
	}
	for _, info := range list.Sessions {
		listed[info.ID] = true
		if r, ok := rs.replicas[info.ID]; ok {
			if info.WALSeq > r.primarySeq.Load() {
				r.primarySeq.Store(info.WALSeq)
			}
			continue
		}
		r := &Replica{
			ID: info.ID, Tenant: info.Tenant,
			dir:     filepath.Join(rs.opts.Root, info.ID),
			workers: rs.opts.Workers, policy: rs.opts.Policy,
			ckptEvery: rs.opts.CheckpointEvery,
			meta:      info.Config,
		}
		r.primarySeq.Store(info.WALSeq)
		rs.replicas[info.ID] = r
		rs.startReplica(r)
	}
	// A session the primary no longer lists was deleted there; drop the
	// replica so a promote cannot resurrect it. The on-disk state is
	// quarantined, not deleted: an omitted id is also what a primary
	// restarted against a fresh or swapped data dir looks like, and in that
	// case this follower holds the only surviving copy of the session —
	// exactly the data a failover exists to protect.
	for id, r := range rs.replicas {
		if listed[id] {
			continue
		}
		if r.cancel != nil {
			r.cancel()
		}
		delete(rs.replicas, id)
		rs.quarantine(r)
	}
}

// quarantineDir is where dropped replicas' session directories are parked
// under Root. The leading dot keeps every recovery scan (this package's and
// the serving layer's) from picking them up; reclaiming the space — or the
// data — is an operator decision.
const quarantineDir = ".quarantine"

// quarantine closes a dropped replica's journal and moves its directory
// aside instead of deleting it.
func (rs *ReplicaSet) quarantine(r *Replica) {
	r.mu.Lock()
	if r.wal != nil {
		r.wal.Close()
	}
	r.sess, r.wal = nil, nil
	r.mu.Unlock()
	trash := filepath.Join(rs.opts.Root, quarantineDir)
	if err := os.MkdirAll(trash, 0o755); err != nil {
		log.Printf("cluster: replica %s dropped (absent on primary); quarantine failed, directory left in place: %v", r.ID, err)
		return
	}
	dst := filepath.Join(trash, r.ID)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(trash, fmt.Sprintf("%s.%d", r.ID, i))
	}
	if err := os.Rename(r.dir, dst); err != nil {
		log.Printf("cluster: replica %s dropped (absent on primary); quarantine failed, directory left in place: %v", r.ID, err)
		return
	}
	log.Printf("cluster: replica %s dropped (absent on primary); state quarantined at %s", r.ID, dst)
}

// startReplica launches one session's stream loop. Caller holds rs.mu (or
// is single-threaded startup).
func (rs *ReplicaSet) startReplica(r *Replica) {
	ctx, cancel := context.WithCancel(rs.ctx)
	r.cancel = cancel
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		rs.runReplica(ctx, r)
	}()
}

// runReplica drives one session: provision from checkpoint if needed, then
// stream WAL frames until the set stops, reconnecting (from the last
// applied sequence, so nothing is double-applied) after torn streams and
// re-syncing from a fresh checkpoint when the primary's log was truncated
// past the subscription.
func (rs *ReplicaSet) runReplica(ctx context.Context, r *Replica) {
	for ctx.Err() == nil {
		if r.sessionNil() {
			if err := rs.provision(ctx, r); err != nil {
				r.note(err)
				sleepCtx(ctx, rs.opts.Retry)
				continue
			}
		}
		err := rs.stream(ctx, r)
		r.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errResync) {
			if werr := rs.wipe(r); werr != nil {
				r.note(werr)
			}
			continue
		}
		if err != nil {
			r.note(err)
		}
		sleepCtx(ctx, rs.opts.Retry)
	}
}

// errResync signals that the local replica state is stale relative to the
// primary (its WAL was checkpointed past our subscription, or our own
// journal failed) and must be rebuilt from a fresh checkpoint.
var errResync = errors.New("cluster: replica requires checkpoint re-sync")

func (r *Replica) sessionNil() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess == nil
}

func (r *Replica) note(err error) {
	if err != nil {
		r.lastErr.Store(err.Error())
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// wipe discards the replica's local state ahead of a full re-sync.
func (rs *ReplicaSet) wipe(r *Replica) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wal != nil {
		r.wal.Close()
	}
	r.sess, r.wal, r.ckptSeq = nil, nil, 0
	r.applied.Store(0)
	return os.RemoveAll(r.dir)
}

// provision builds the replica's local state from the primary's current
// checkpoint: directory, fingerprint, tenant marker, checkpoint file (or an
// empty session when the primary has never checkpointed), and a WAL whose
// sequence counter resumes after the checkpoint.
func (rs *ReplicaSet) provision(ctx context.Context, r *Replica) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	cfgBytes, err := json.MarshalIndent(r.meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.dir, "config.json"), cfgBytes, 0o644); err != nil {
		return err
	}
	if r.Tenant != "" && r.Tenant != "default" {
		if err := os.WriteFile(filepath.Join(r.dir, "tenant"), []byte(r.Tenant+"\n"), 0o644); err != nil {
			return err
		}
	}
	cfg, err := ConfigFromMeta(r.meta)
	if err != nil {
		return err
	}
	c, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(r.workers))
	if err != nil {
		return err
	}

	req, err := rs.feedRequest(ctx, "/v1/replication/sessions/"+url.PathEscape(r.ID)+"/checkpoint")
	if err != nil {
		return err
	}
	resp, err := rs.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	var sess *adawave.Session
	var ckptSeq uint64
	switch resp.StatusCode {
	case http.StatusOK:
		ckptSeq, _ = strconv.ParseUint(resp.Header.Get(api.HeaderCheckpointSeq), 10, 64)
		tmp := filepath.Join(r.dir, "checkpoint.tmp")
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, resp.Body); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("checkpoint transfer: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		f.Close()
		final := filepath.Join(r.dir, CheckpointFileName(ckptSeq))
		if err := os.Rename(tmp, final); err != nil {
			os.Remove(tmp)
			return err
		}
		cf, err := os.Open(final)
		if err != nil {
			return err
		}
		sess, err = c.RestoreSession(cf)
		cf.Close()
		if err != nil {
			os.Remove(final)
			return fmt.Errorf("checkpoint restore: %w", err)
		}
	case http.StatusNoContent:
		// The primary has never checkpointed this session: start empty and
		// let the WAL stream carry the whole history.
		sess = c.NewSession()
	default:
		return fmt.Errorf("checkpoint fetch: primary answered %d", resp.StatusCode)
	}

	wal, err := persist.OpenWAL(filepath.Join(r.dir, "wal.log"), r.policy)
	if err != nil {
		return err
	}
	wal.SkipTo(ckptSeq)

	r.mu.Lock()
	r.cfg = cfg
	r.sess = sess
	r.wal = wal
	r.ckptSeq = ckptSeq
	r.mu.Unlock()
	r.applied.Store(ckptSeq)
	if ckptSeq > r.primarySeq.Load() {
		r.primarySeq.Store(ckptSeq)
	}
	log.Printf("cluster: replica %s provisioned from checkpoint seq %d (%d points)", r.ID, ckptSeq, sess.Len())
	return nil
}

// stream opens the long-lived frame stream from the last applied sequence
// and applies frames until the connection ends. A clean EOF (the primary
// reset its WAL after a checkpoint, or shut down) returns nil and the
// caller reconnects; a torn frame reconnects the same way — the replica's
// applied sequence is the resume point either way, so nothing is lost or
// double-applied. A 409 from the primary means our subscription predates
// its checkpoint: return errResync.
func (rs *ReplicaSet) stream(ctx context.Context, r *Replica) error {
	from := r.applied.Load()
	req, err := rs.feedRequest(ctx, "/v1/replication/sessions/"+url.PathEscape(r.ID)+"/wal?from="+strconv.FormatUint(from, 10))
	if err != nil {
		return err
	}
	resp, err := rs.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return errResync
	case http.StatusNotFound:
		// Deleted on the primary; the poll loop will drop us shortly.
		return fmt.Errorf("session %s gone on primary", r.ID)
	default:
		return fmt.Errorf("wal stream: primary answered %d", resp.StatusCode)
	}
	if seq, err := strconv.ParseUint(resp.Header.Get(api.HeaderWALSeq), 10, 64); err == nil {
		// Session sequences are monotone across checkpoints, so the primary's
		// log ending BELOW our applied position means its history was
		// rewritten (it lost the WAL tail in a crash, or was restored from a
		// backup) and it will re-issue the sequences we already hold for new,
		// different mutations. Resuming would silently apply divergent frames
		// that pass the contiguity check; rebuild from its checkpoint instead.
		if applied := r.applied.Load(); seq < applied {
			return fmt.Errorf("%w (primary wal seq %d behind applied %d: primary history rewritten)", errResync, seq, applied)
		}
		if seq > r.primarySeq.Load() {
			r.primarySeq.Store(seq)
		}
	}
	r.connected.Store(true)
	r.lastErr.Store("")

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		frame, seq, err := persist.ReadFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Torn mid-frame (connection died): reconnect from applied.
			return err
		}
		if err := r.apply(frame, seq); err != nil {
			return err
		}
	}
}

// apply folds one frame into the warm session and journals it verbatim.
// The order matches the primary's contract — only successfully applied
// mutations are journaled — so the local log can never replay a mutation
// the session refused.
func (r *Replica) apply(frame []byte, seq uint64) error {
	rec, err := persist.ParseFrame(frame)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return errResync
	}
	if rec.Batch != nil {
		err = r.sess.AppendContext(context.Background(), rec.Batch)
	} else {
		err = r.sess.RemoveContext(context.Background(), rec.Indices)
	}
	if err != nil {
		// The primary applied this mutation and we cannot: the states have
		// diverged (or our checkpoint base was stale). Rebuild from scratch.
		return fmt.Errorf("%w (apply seq %d: %v)", errResync, seq, err)
	}
	if _, err := r.wal.AppendFrame(frame); err != nil {
		// The session advanced but the journal did not; the only safe
		// recovery is a rebuild — continuing would leave the on-disk state
		// behind the acknowledged stream position.
		return fmt.Errorf("%w (journal seq %d: %v)", errResync, seq, err)
	}
	r.applied.Store(seq)
	if seq > r.primarySeq.Load() {
		r.primarySeq.Store(seq)
	}
	r.maybeCheckpointLocked()
	return nil
}

// maybeCheckpointLocked folds a grown local WAL into a checkpoint so the
// follower's own crash recovery stays O(checkpoint read + short tail) and
// its disk footprint stays bounded. Failures are logged, not fatal: the WAL
// still holds everything.
func (r *Replica) maybeCheckpointLocked() {
	if r.ckptEvery < 0 || r.wal.Records() < uint64(r.ckptEvery) {
		return
	}
	seq := r.wal.Seq()
	tmp := filepath.Join(r.dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		log.Printf("cluster: replica %s checkpoint: %v", r.ID, err)
		return
	}
	if err := r.sess.CheckpointContext(context.Background(), f); err != nil {
		f.Close()
		os.Remove(tmp)
		log.Printf("cluster: replica %s checkpoint: %v", r.ID, err)
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		log.Printf("cluster: replica %s checkpoint: %v", r.ID, err)
		return
	}
	f.Close()
	if err := os.Rename(tmp, filepath.Join(r.dir, CheckpointFileName(seq))); err != nil {
		os.Remove(tmp)
		log.Printf("cluster: replica %s checkpoint: %v", r.ID, err)
		return
	}
	if d, err := os.Open(r.dir); err == nil {
		d.Sync()
		d.Close()
	}
	if err := r.wal.Reset(); err != nil {
		log.Printf("cluster: replica %s wal reset: %v", r.ID, err)
		return
	}
	if entries, err := os.ReadDir(r.dir); err == nil {
		for _, e := range entries {
			if s, ok := CheckpointSeqOf(e.Name()); ok && s != seq {
				os.Remove(filepath.Join(r.dir, e.Name()))
			}
		}
	}
	r.ckptSeq = seq
}

// Status reports every replica's standing keyed by session id. After a
// promote the sessions belong to the serving registry and the map is empty.
func (rs *ReplicaSet) Status() map[string]api.ReplicationStatus {
	if rs.promoted.Load() {
		return map[string]api.ReplicationStatus{}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string]api.ReplicationStatus, len(rs.replicas))
	for id, r := range rs.replicas {
		applied, primary := r.applied.Load(), r.primarySeq.Load()
		lag := uint64(0)
		if primary > applied {
			lag = primary - applied
		}
		lastErr, _ := r.lastErr.Load().(string)
		out[id] = api.ReplicationStatus{
			Role:       "follower",
			Primary:    rs.opts.Primary,
			AppliedSeq: applied,
			PrimarySeq: primary,
			Lag:        lag,
			Connected:  r.connected.Load(),
			LastError:  lastErr,
		}
	}
	return out
}

// Lookup returns one replica's warm session and shape for read-only
// serving (detail endpoints on a follower); ok is false for unknown ids or
// replicas still provisioning.
func (rs *ReplicaSet) Lookup(id string) (sess *adawave.Session, tenant string, ok bool) {
	if rs.promoted.Load() {
		return nil, "", false
	}
	rs.mu.Lock()
	r := rs.replicas[id]
	rs.mu.Unlock()
	if r == nil {
		return nil, "", false
	}
	r.mu.Lock()
	sess = r.sess
	r.mu.Unlock()
	if sess == nil {
		return nil, "", false
	}
	return sess, r.Tenant, true
}

// IDs lists the replicated session ids (empty after a promote).
func (rs *ReplicaSet) IDs() []string {
	if rs.promoted.Load() {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ids := make([]string, 0, len(rs.replicas))
	for id := range rs.replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Primary returns the primary base URL this set follows.
func (rs *ReplicaSet) Primary() string { return rs.opts.Primary }

// Promote stops replication and hands every warm replica over: the second
// half of a failover. Replicas still mid-provision (no session object yet)
// cannot be promoted and are skipped with a log line — their state never
// reached this node. Promote is idempotent; later calls return nothing.
func (rs *ReplicaSet) Promote() []Promoted {
	rs.Stop()
	if !rs.promoted.CompareAndSwap(false, true) {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]Promoted, 0, len(rs.replicas))
	for id, r := range rs.replicas {
		r.mu.Lock()
		sess, wal, ckptSeq := r.sess, r.wal, r.ckptSeq
		r.mu.Unlock()
		if sess == nil || wal == nil {
			log.Printf("cluster: replica %s skipped in promote (never finished provisioning)", id)
			continue
		}
		out = append(out, Promoted{
			ID: id, Tenant: r.Tenant, Config: r.cfg, Session: sess,
			Disk: &SessionDisk{Dir: r.dir, WAL: wal, CkptSeq: ckptSeq},
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Close stops replication and closes the replicas' WALs (flushing buffered
// frames). After a promote the WALs belong to the promoted sessions and are
// left open — their new owner closes them.
func (rs *ReplicaSet) Close() {
	rs.Stop()
	if rs.promoted.Load() {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, r := range rs.replicas {
		r.mu.Lock()
		if r.wal != nil {
			if err := r.wal.Close(); err != nil {
				log.Printf("cluster: replica %s wal close: %v", r.ID, err)
			}
		}
		r.mu.Unlock()
	}
}
