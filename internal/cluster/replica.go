package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
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
	// Sessions is the local sessions root; replicated sessions are journaled
	// there as SessionDirs, the layout the serving layer's own recovery
	// reads.
	Sessions *SessionRoot
	Workers  int
	// Client performs the HTTP calls. It must not carry a global Timeout —
	// the WAL stream is long-lived by design; per-call deadlines are set
	// through contexts. Nil selects a default client.
	Client *http.Client
	// Poll bounds the session-list wait (default 1s). Each list request
	// names the list version this follower holds, and the primary answers
	// when its set of sessions changes or after Poll — so discovery is as
	// fast as the primary's answer, and the lag measurement (the listed WAL
	// sequences) is at most Poll old. A primary that reports no version is
	// asked at most once per Poll.
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

	ckptEvery int
	meta      persist.ConfigMeta

	// mu guards the apply path (session mutation + journal) and the
	// promote handoff; the session object itself stays safe for concurrent
	// readers (status, detail reads) while the applier holds mu.
	mu   sync.Mutex
	sess *adawave.Session
	dir  *SessionDir // nil until provisioned

	applied    atomic.Uint64
	primarySeq atomic.Uint64
	connected  atomic.Bool
	lastErr    atomic.Value // string

	cancel context.CancelFunc
}

// Promoted is one warm session handed to the serving registry, by a
// promoted ReplicaSet or by boot-time RecoverAll: the live engine object
// plus its session directory, ready to serve mutations and labels
// immediately.
type Promoted struct {
	Dir     *SessionDir
	Session *adawave.Session
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
	go rs.discover()
}

// Stop ends discovery and every stream, and waits for them to exit. After
// Stop the replicas' state is quiescent — this is the first half of a
// promote.
func (rs *ReplicaSet) Stop() {
	rs.stopOnce.Do(rs.cancel)
	rs.wg.Wait()
}

// recoverLocal loads every session directory under the sessions root into
// a warm replica (newest checkpoint + WAL tail, the standard recovery path).
func (rs *ReplicaSet) recoverLocal() {
	live, _ := rs.opts.Sessions.RecoverAll(rs.opts.Workers)
	for _, p := range live {
		d := p.Dir
		r := &Replica{
			ID: d.ID(), Tenant: d.Tenant(), ckptEvery: rs.opts.CheckpointEvery,
			meta: d.Meta(), sess: p.Session, dir: d,
		}
		r.applied.Store(d.WAL().Seq())
		r.primarySeq.Store(d.WAL().Seq())
		rs.replicas[r.ID] = r
		rs.startReplica(r)
	}
}

// discover keeps the replica set in step with the primary's session list
// and refreshes the lag measurement. Each request names the list version
// this follower holds, so a versioning primary answers when its set of
// sessions changes or after Poll. One pacing rule covers every answer: the
// next request goes out at once when the version moved, and otherwise no
// sooner than Poll after the previous one started. A long wait that ran
// its course has already spent Poll; a primary that reports no version, or
// a failed request, is asked again a Poll later — never in a spin.
func (rs *ReplicaSet) discover() {
	defer rs.wg.Done()
	var version uint64
	for rs.ctx.Err() == nil {
		start := time.Now()
		if v, err := rs.pollOnce(version); err == nil && v != version {
			version = v
			continue
		}
		sleepCtx(rs.ctx, rs.opts.Poll-time.Since(start))
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

// pollOnce fetches the primary's session list — waiting, when held is a
// version, until the list moves past it or Poll runs out — and reconciles
// the replica set with it. It returns the list's version (0 when the
// primary reports none).
func (rs *ReplicaSet) pollOnce(held uint64) (uint64, error) {
	ctx, cancel := context.WithTimeout(rs.ctx, rs.opts.Poll*3+time.Second)
	defer cancel()
	path := "/v1/replication/sessions"
	if held != 0 {
		path += "?" + url.Values{
			api.QueryListVersion: {strconv.FormatUint(held, 10)},
			api.QueryListWait:    {rs.opts.Poll.String()},
		}.Encode()
	}
	req, err := rs.feedRequest(ctx, path)
	if err != nil {
		return 0, err
	}
	resp, err := rs.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("session list: primary answered %d", resp.StatusCode)
	}
	var list api.ReplicationSessionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, err
	}
	listed := make(map[string]bool, len(list.Sessions))
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.ctx.Err() != nil {
		return 0, rs.ctx.Err()
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
			ckptEvery: rs.opts.CheckpointEvery, meta: info.Config,
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
	return list.Version, nil
}

// quarantine detaches a dropped replica and parks its directory under the
// sessions root's .quarantine/ instead of deleting it.
func (rs *ReplicaSet) quarantine(r *Replica) {
	d := r.detach()
	if d == nil {
		return // never provisioned: nothing on disk
	}
	dst, err := rs.opts.Sessions.Quarantine(d)
	if err != nil {
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
			// Discard the local state ahead of a full re-sync.
			if d := r.detach(); d != nil {
				r.note(d.Drop())
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

// detach clears the replica's local state and returns the directory that
// held it (nil if never provisioned), for the caller to drop or quarantine.
func (r *Replica) detach() *SessionDir {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.dir
	r.sess, r.dir = nil, nil
	r.applied.Store(0)
	return d
}

// provision builds the replica's local state from the primary's current
// checkpoint: a fresh session directory holding the fetched checkpoint (or
// an empty session when the primary has never checkpointed), its WAL
// resuming after the checkpoint's sequence. A failed provision drops the
// directory, so the retry starts clean and no stray checkpoint survives.
func (rs *ReplicaSet) provision(ctx context.Context, r *Replica) error {
	cfg, err := ConfigFromMeta(r.meta)
	if err != nil {
		return err
	}
	c, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(rs.opts.Workers))
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
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("checkpoint fetch: primary answered %d", resp.StatusCode)
	}
	d, err := rs.opts.Sessions.Create(r.ID, r.meta, r.Tenant)
	if errors.Is(err, fs.ErrExist) {
		// A directory of this id that boot recovery could not load (or a
		// re-sync could not remove): park it for inspection and start clean.
		var dst string
		if dst, err = rs.opts.Sessions.Quarantine(rs.opts.Sessions.dir(r.ID)); err == nil {
			log.Printf("cluster: replica %s: stale session directory quarantined at %s", r.ID, dst)
			d, err = rs.opts.Sessions.Create(r.ID, r.meta, r.Tenant)
		}
	}
	if err != nil {
		return err
	}
	// 204: the primary has never checkpointed this session; start empty and
	// let the WAL stream carry the whole history.
	sess, ckptSeq := c.NewSession(), uint64(0)
	if resp.StatusCode == http.StatusOK {
		ckptSeq, _ = strconv.ParseUint(resp.Header.Get(api.HeaderCheckpointSeq), 10, 64)
		err = d.Checkpoint(ckptSeq, func(w io.Writer) error {
			_, err := io.Copy(w, resp.Body)
			return err
		})
		if err == nil {
			sess, err = d.Restore(c, ckptSeq)
		}
		if err != nil {
			d.Drop()
			return fmt.Errorf("checkpoint transfer: %w", err)
		}
	}

	r.mu.Lock()
	r.sess, r.dir = sess, d
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
		// Deleted on the primary; discovery will drop us shortly.
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
		frame, rec, err := persist.ReadRecord(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Torn mid-frame (connection died): reconnect from applied.
			return err
		}
		if err := r.apply(frame, rec); err != nil {
			return err
		}
	}
}

// apply folds one frame, read and decoded by persist.ReadRecord, into the
// warm session and journals it verbatim. The order matches the primary's
// contract — only successfully applied mutations are journaled — so the
// local log can never replay a mutation the session refused.
func (r *Replica) apply(frame []byte, rec persist.Record) error {
	seq := rec.Seq
	var err error
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
	if _, err := r.dir.WAL().AppendFrame(frame, rec); err != nil {
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
	wal := r.dir.WAL()
	if r.ckptEvery < 0 || wal.Records() < uint64(r.ckptEvery) {
		return
	}
	if err := r.dir.Checkpoint(wal.Seq(), func(w io.Writer) error {
		return r.sess.CheckpointContext(context.Background(), w)
	}); err != nil {
		log.Printf("cluster: replica %s checkpoint: %v", r.ID, err)
	}
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
		sess, d := r.sess, r.dir
		r.mu.Unlock()
		if sess == nil || d == nil {
			log.Printf("cluster: replica %s skipped in promote (never finished provisioning)", id)
			continue
		}
		out = append(out, Promoted{Dir: d, Session: sess})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dir.ID() < out[b].Dir.ID() })
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
		if r.dir != nil {
			if err := r.dir.WAL().Close(); err != nil {
				log.Printf("cluster: replica %s wal close: %v", r.ID, err)
			}
		}
		r.mu.Unlock()
	}
}
