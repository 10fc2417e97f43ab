// Command adawave-serve exposes streaming AdaWave sessions over HTTP JSON:
// create a session, POST point batches into it over time (JSON arrays or
// chunked CSV bodies), and read labels or multi-resolution results from the
// warm engine — each read pays only the grid-side stages, never a full
// requantization of the history.
//
// Usage:
//
//	adawave-serve [-addr :8321] [-workers 0] [-timeout 30s]
//	              [-shutdown-timeout 10s] [-csv-batch 8192]
//	              [-max-body-bytes 268435456] [-max-sessions 64]
//	              [-max-points 10000000]
//	              [-data-dir DIR] [-wal-sync always|interval|never]
//	              [-wal-sync-interval 1s] [-checkpoint-interval 1m]
//
// Endpoints (v1, the versioned wire contract of internal/api):
//
//	GET    /healthz                           liveness + session count
//	GET    /v1/metrics                        per-route request/latency counters (expvar-style JSON)
//	POST   /v1/sessions                       create a session (optional JSON config body)
//	GET    /v1/sessions                       list sessions
//	GET    /v1/sessions/{id}                  session detail (points, dim, cells, checkpoint seq)
//	POST   /v1/sessions/{id}/points           append a batch (JSON {"points":[[…]]} or a text/csv
//	                                          body; a CSV label column, if present, is ignored)
//	DELETE /v1/sessions/{id}/points           remove points (JSON {"indices":[…]})
//	GET    /v1/sessions/{id}/labels           cluster the current point set; JSON by default,
//	                                          chunked NDJSON stream under Accept: application/x-ndjson
//	GET    /v1/sessions/{id}/multiresolution  multi-level results (?levels=L)
//	POST   /v1/sessions/{id}/checkpoint       force a checkpoint now (admin; requires -data-dir)
//	DELETE /v1/sessions/{id}                  drop the session (and its on-disk state)
//
// Only the /v1 routes exist; unversioned /sessions... paths answer 404.
// Errors are a structured envelope {"error":{code,message}} with the
// stable code vocabulary of internal/api.
//
// The -timeout request-scoped deadline rides the request context: the
// ctx-aware engine aborts in-flight compute at the next shard boundary
// (504 deadline_exceeded), a client disconnect aborts it the same way (499
// logged as a client abort, never a 5xx), and a mutation queued behind a
// long writer gives up at its deadline instead of blocking. The one wait
// the deadline does not cut short is a read arriving while ANOTHER
// request's recompute holds the session lock — it waits for that compute,
// which is itself bounded by its own request's deadline. The process
// drains in-flight requests on SIGINT/SIGTERM before exiting.
//
// With -data-dir set, sessions are durable: every acknowledged mutation is
// journaled to a per-session write-ahead log (fsynced per -wal-sync), a
// background checkpointer periodically folds the log into a full binary
// checkpoint, and a restarted process recovers every session — newest
// checkpoint plus WAL tail, torn trailing records discarded — with labels
// bit-identical to the uninterrupted session. See store.go for the layout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/cluster"
	"adawave/internal/core"
	"adawave/internal/dataio"
	"adawave/internal/grid"
	"adawave/internal/persist"
	"adawave/internal/pointset"
	"adawave/internal/sched"
)

// serverOptions bundles the serving configuration; zero values select the
// documented defaults, and an empty dataDir disables persistence.
type serverOptions struct {
	workers         int
	timeout         time.Duration
	csvBatch        int
	maxBody         int64
	maxSessions     int
	maxPoints       int
	dataDir         string
	walSync         persist.SyncPolicy
	walSyncInterval time.Duration
	ckptInterval    time.Duration

	// Multi-tenant governance (see tenant.go): the API-key → tenant map,
	// the default per-tenant quota (zero fields = unlimited), and the
	// residency budget the eviction manager enforces (0 = unbounded;
	// requires dataDir, since eviction parks sessions on their checkpoints).
	tenants          map[string]string
	quota            sched.Quota
	maxResident      int
	maxResidentBytes int64

	// Cluster role (see replicate.go): "" or "standalone" serves alone;
	// "primary" additionally exposes the replication feed; "follower"
	// replicates followerOf's sessions and serves reads + replication only
	// until promoted. peers is informational (reported in status).
	// clusterSecret, when set, is required (constant-time compared) on every
	// /v1/replication/ request and sent on every feed request this node
	// makes — the feed hands out full session data and promote mutates the
	// topology, so neither may be open to arbitrary callers.
	role          string
	followerOf    string
	peers         []string
	clusterSecret string

	// Replication overrides (zero = the cluster package defaults of a 500ms
	// reconnect backoff and a local checkpoint every 8192 frames); tests
	// tighten these to keep failover drills fast.
	replicaRetry           time.Duration
	replicaCheckpointEvery int

	// fs is the filesystem under dataDir; nil selects persist.OS. Tests set
	// it to inject storage faults.
	fs persist.FS
}

// server holds the session registry: one adawave.Session per id, each safe
// for one writer and many readers, so concurrent label reads on a warm
// session share its cached result. With persistence enabled it also owns
// the background checkpointer and WAL-fsync tickers.
type server struct {
	workers     int
	timeout     time.Duration
	csvBatch    int
	maxBody     int64
	maxSessions int
	maxPoints   int

	disk            *cluster.SessionRoot // nil when -data-dir is unset
	walSyncInterval time.Duration
	ckptInterval    time.Duration
	stop            chan struct{}
	bg              sync.WaitGroup
	closeOnce       sync.Once
	metrics         *serverMetrics

	// draining is closed when the drain begins (see beginDrain): the
	// long-lived replication handlers — the WAL stream and the waiting
	// session list — end on it, so a graceful shutdown does not wait out
	// the followers attached to this node.
	draining  chan struct{}
	drainOnce sync.Once

	// Resource governance: the process-wide worker pool every request's
	// fan-out draws shards from (fair across tenants), the quota governor,
	// the API-key → tenant map, and the residency budget (see tenant.go).
	pool             *sched.Pool
	gov              *sched.Governor
	tenants          map[string]string
	maxResident      int
	maxResidentBytes int64

	// Cluster state (see replicate.go). role is atomic because a follower
	// flips to primary at promote time while requests are in flight;
	// replica is the follower's replication engine (nil otherwise).
	role          atomic.Value // string
	followerOf    string
	peers         []string
	clusterSecret string
	replica       *cluster.ReplicaSet
	promoteMu     sync.Mutex
	// listVer versions the session registry for the replication feed's
	// session list (see replicationSessions): every create, delete and
	// adopt bumps it.
	listVer *cluster.ListVersion

	mu       sync.RWMutex
	sessions map[string]*serveSession
	nextID   atomic.Uint64
}

// serveSession pairs a Session with the server-side writer lock and its
// on-disk state. The Session itself is safe for one writer and many
// readers; the writer lock serializes HTTP mutation requests (and
// checkpoints) so that contract holds even when two clients POST to the
// same session — and so the CSV rollback's "the appended points are the
// tail" assumption is enforced, not assumed. files (nil without -data-dir)
// is guarded by the writer lock too.
//
// The lock is a 1-slot channel semaphore rather than a sync.Mutex so a
// handler queued behind a long writer (a multi-minute CSV upload holds the
// lock for its whole body) can give up when its request deadline expires or
// its client disconnects: lockWrite answers 504/499 at the deadline instead
// of blocking unresponsively until the writer finishes.
// The Session pointer lives behind live (atomic): the eviction manager
// parks an idle session on its checkpoint and clears the pointer, and the
// next touch rehydrates it under hydrateMu (single-flight; see tenant.go).
// Handlers obtain the session through acquire, never by loading live
// directly. lastPoints/lastDim cache the shape so listing sessions never
// rehydrates one; lastTouch orders the eviction LRU.
type serveSession struct {
	writeSem chan struct{}
	files    *sessionFiles
	id       string
	tenant   string
	cfg      adawave.Config
	workers  int

	hydrateMu  sync.Mutex
	live       atomic.Pointer[adawave.Session]
	lastTouch  atomic.Int64 // unix nanos of the last request touching this session
	lastPoints atomic.Int64
	lastDim    atomic.Int64
}

func newServeSession(id, tenant string, sess *adawave.Session, files *sessionFiles, workers int) *serveSession {
	ss := &serveSession{
		writeSem: make(chan struct{}, 1),
		files:    files,
		id:       id,
		tenant:   tenant,
		cfg:      sess.Config(),
		workers:  workers,
	}
	ss.live.Store(sess)
	ss.touch()
	ss.cacheShape(sess)
	return ss
}

// adopt registers warm sessions — recovered at boot or handed over by a
// promote — and seeds the governor with their footprints so quotas survive
// a restart or failover (cells re-enter the accounting at each session's
// next fold). Server-minted ids ("s<N>") are kept above every name given.
func (s *server) adopt(live []cluster.Promoted, names []string) {
	s.mu.Lock()
	for _, p := range live {
		s.sessions[p.Dir.ID()] = newServeSession(p.Dir.ID(), p.Dir.Tenant(), p.Session, &sessionFiles{SessionDir: p.Dir}, s.workers)
	}
	s.mu.Unlock()
	s.listVer.Bump()
	for _, p := range live {
		s.gov.AddPoints(p.Dir.Tenant(), int64(p.Session.Len()))
	}
	for _, name := range names {
		n, err := strconv.ParseUint(strings.TrimPrefix(name, "s"), 10, 64)
		for cur := s.nextID.Load(); err == nil && n > cur && !s.nextID.CompareAndSwap(cur, n); cur = s.nextID.Load() {
		}
	}
}

// lockWrite acquires the session writer lock, giving up with the context's
// taxonomy error if ctx dies first (background callers pass
// context.Background(), which never does). The caller must unlockWrite
// after a nil return.
func (ss *serveSession) lockWrite(ctx context.Context) error {
	select {
	case ss.writeSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return grid.CtxErr(ctx)
	}
}

func (ss *serveSession) unlockWrite() { <-ss.writeSem }

func newServer(opts serverOptions) (*server, error) {
	if opts.csvBatch <= 0 {
		opts.csvBatch = 8192
	}
	if opts.maxBody <= 0 {
		opts.maxBody = 256 << 20
	}
	if opts.maxSessions <= 0 {
		opts.maxSessions = 64
	}
	if opts.maxPoints <= 0 {
		opts.maxPoints = 10_000_000
	}
	if (opts.maxResident > 0 || opts.maxResidentBytes > 0) && opts.dataDir == "" {
		return nil, errors.New("-max-resident-sessions/-max-resident-bytes require -data-dir (eviction parks sessions on their checkpoints)")
	}
	if opts.role == "" {
		opts.role = roleStandalone
	}
	switch opts.role {
	case roleStandalone:
	case rolePrimary:
		if opts.dataDir == "" {
			return nil, errors.New("-role=primary requires -data-dir (replication streams the write-ahead log)")
		}
	case roleFollower:
		if opts.dataDir == "" {
			return nil, errors.New("-role=follower requires -data-dir (replicated state is journaled locally)")
		}
		if opts.followerOf == "" {
			return nil, errors.New("-role=follower requires -follower-of (the primary's base URL)")
		}
	default:
		return nil, fmt.Errorf("unknown -role %q (want standalone, primary or follower)", opts.role)
	}
	s := &server{
		workers:          opts.workers,
		timeout:          opts.timeout,
		csvBatch:         opts.csvBatch,
		maxBody:          opts.maxBody,
		maxSessions:      opts.maxSessions,
		maxPoints:        opts.maxPoints,
		walSyncInterval:  opts.walSyncInterval,
		ckptInterval:     opts.ckptInterval,
		pool:             sched.NewPool(opts.workers),
		gov:              sched.NewGovernor(opts.quota),
		tenants:          opts.tenants,
		maxResident:      opts.maxResident,
		maxResidentBytes: opts.maxResidentBytes,
		followerOf:       opts.followerOf,
		peers:            opts.peers,
		clusterSecret:    opts.clusterSecret,
		stop:             make(chan struct{}),
		draining:         make(chan struct{}),
		listVer:          cluster.NewListVersion(),
		sessions:         make(map[string]*serveSession),
		metrics:          newServerMetrics(),
	}
	s.role.Store(opts.role)
	if opts.dataDir != "" {
		if opts.fs == nil {
			opts.fs = persist.OS
		}
		disk, err := cluster.OpenSessionRoot(opts.fs, opts.dataDir, opts.walSync)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.disk = disk
		if opts.role == roleFollower {
			// The replication engine owns every session directory on a
			// follower: it recovers them itself (so a follower restarted
			// after its primary died can still be promoted) and keeps them
			// current from the primary's stream. The serving registry stays
			// empty until a promote hands the warm sessions over.
			s.replica = cluster.NewReplicaSet(cluster.ReplicaOptions{
				Primary:         opts.followerOf,
				Sessions:        disk,
				Workers:         opts.workers,
				Retry:           opts.replicaRetry,
				CheckpointEvery: opts.replicaCheckpointEvery,
				Secret:          opts.clusterSecret,
			})
			s.replica.Start()
			s.startBackground(opts.walSync)
			return s, nil
		}
		live, names := disk.RecoverAll(opts.workers)
		s.adopt(live, names)
		s.startBackground(opts.walSync)
		s.enforceResidency()
	}
	return s, nil
}

// startBackground launches the periodic checkpointer and, under the
// interval fsync policy, the WAL sync ticker.
func (s *server) startBackground(policy persist.SyncPolicy) {
	if s.ckptInterval > 0 {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			t := time.NewTicker(s.ckptInterval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.checkpointDirty()
				}
			}
		}()
	}
	if s.maxResident > 0 || s.maxResidentBytes > 0 {
		// Safety-net residency sweep: appends grow resident bytes without a
		// rehydration to trigger enforcement, so re-check periodically.
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			t := time.NewTicker(5 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.enforceResidency()
				}
			}
		}()
	}
	if policy == persist.SyncInterval {
		interval := s.walSyncInterval
		if interval <= 0 {
			interval = time.Second
		}
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					for _, ss := range s.snapshotSessions() {
						if ss.files != nil {
							if err := ss.files.WAL().Sync(); err != nil {
								log.Printf("adawave-serve: wal sync: %v", err)
							}
						}
					}
				}
			}
		}()
	}
}

// snapshotSessions copies the registry under the read lock.
func (s *server) snapshotSessions() []*serveSession {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*serveSession, 0, len(s.sessions))
	for _, ss := range s.sessions {
		out = append(out, ss)
	}
	return out
}

// checkpointDirty checkpoints every session whose WAL has grown since its
// last checkpoint, truncating the log. Evicted sessions are skipped: their
// WAL is empty by construction (eviction checkpoints first, and every
// mutation rehydrates).
func (s *server) checkpointDirty() {
	for _, ss := range s.snapshotSessions() {
		ss.lockWrite(context.Background())
		if ss.resident() && ss.files != nil && (ss.files.WAL().Records() > 0 || ss.files.broken) {
			if _, err := ss.checkpointLocked(); err != nil {
				log.Printf("adawave-serve: background checkpoint: %v", err)
			}
		}
		ss.unlockWrite()
	}
}

// beginDrain ends the long-lived replication handlers: a WAL stream
// flushes what it has read and ends at a frame boundary, a waiting session
// list answers now. The WALs stay open, so the handlers finish against
// them; later requests are served but do not wait. The HTTP server calls it
// when its graceful shutdown starts (see httpServer), Close at the latest.
func (s *server) beginDrain() { s.drainOnce.Do(func() { close(s.draining) }) }

// Close stops the background goroutines and closes every session's WAL
// (flushing buffered records). It does not checkpoint; recovery replays the
// log on the next boot.
func (s *server) Close() {
	s.closeOnce.Do(func() {
		s.beginDrain()
		close(s.stop)
		s.bg.Wait()
		if s.replica != nil {
			s.replica.Close()
		}
		for _, ss := range s.snapshotSessions() {
			ss.lockWrite(context.Background())
			if ss.files != nil {
				if err := ss.files.WAL().Close(); err != nil {
					log.Printf("adawave-serve: wal close: %v", err)
				}
			}
			ss.unlockWrite()
		}
		s.pool.Close()
	})
}

// handler wires the versioned routes (each instrumented with the per-route
// metrics) and layers the middleware: body cap → request-id propagation →
// tenant resolution + quota admission → request-scoped deadline → mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.healthz))
	mux.HandleFunc("GET /v1/metrics", s.instrument("metrics", s.metricsHandler))
	mux.HandleFunc("POST /v1/sessions", s.instrument("create_session", s.createSession))
	mux.HandleFunc("GET /v1/sessions", s.instrument("list_sessions", s.listSessions))
	mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("session_detail", s.sessionDetail))
	mux.HandleFunc("POST /v1/sessions/{id}/points", s.instrument("append_points", s.appendPoints))
	mux.HandleFunc("DELETE /v1/sessions/{id}/points", s.instrument("remove_points", s.removePoints))
	mux.HandleFunc("GET /v1/sessions/{id}/labels", s.instrument("labels", s.labels))
	mux.HandleFunc("GET /v1/sessions/{id}/multiresolution", s.instrument("multiresolution", s.multiResolution))
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", s.instrument("checkpoint", s.checkpointSession))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete_session", s.deleteSession))
	mux.HandleFunc("GET /v1/tenants/{id}/usage", s.instrument("tenant_usage", s.tenantUsage))

	// Cluster replication feed (see replicate.go): a primary serves the
	// session list, checkpoint downloads and the long-lived WAL frame
	// stream; a follower serves promote. All of them bypass the request
	// deadline (the stream is long-lived by design) and the tenant QPS
	// admission (node-to-node traffic must not consume tenant quota) — and
	// all of them sit behind the cluster secret when one is configured,
	// since they hand out full session data and rewire the topology.
	mux.HandleFunc("GET /v1/replication/sessions", s.instrument("replication_sessions", s.clusterAuth(s.replicationSessions)))
	mux.HandleFunc("GET /v1/replication/sessions/{id}/checkpoint", s.instrument("replication_checkpoint", s.clusterAuth(s.replicationCheckpoint)))
	mux.HandleFunc("GET /v1/replication/sessions/{id}/wal", s.instrument("replication_wal", s.clusterAuth(s.replicationWAL)))
	mux.HandleFunc("POST /v1/replication/promote", s.instrument("replication_promote", s.clusterAuth(s.promoteHandler)))
	mux.HandleFunc("GET /v1/replication/status", s.instrument("replication_status", s.clusterAuth(s.replicationStatus)))

	var h http.Handler = mux
	h = s.withRole(h)
	h = s.withDeadline(h)
	h = s.withTenant(h)
	h = requestIDMiddleware(h)
	h = s.bodyCap(h)
	return h
}

// sessionConfig decodes a session-create body — an api.SessionConfig, or
// no body at all — and layers it over the paper's parameter-free defaults;
// every unset field keeps its default. A config it returns without error
// passes Validate, so adawave.New accepts it.
func sessionConfig(body io.Reader) (adawave.Config, error) {
	var sc api.SessionConfig
	if body != nil {
		if err := json.NewDecoder(body).Decode(&sc); err != nil && err != io.EOF {
			return adawave.Config{}, fmt.Errorf("bad config: %v", err)
		}
	}
	cfg := adawave.DefaultConfig()
	if sc.Scale != nil {
		cfg.Scale = *sc.Scale
	}
	if sc.Levels != nil {
		cfg.Levels = *sc.Levels
	}
	if sc.Basis != "" {
		basis, err := adawave.BasisByName(sc.Basis)
		if err != nil {
			return cfg, err
		}
		cfg.Basis = basis
	}
	switch sc.Connectivity {
	case "", "faces":
	case "full":
		cfg.Connectivity = grid.Full
	default:
		return cfg, fmt.Errorf("unknown connectivity %q (want faces or full)", sc.Connectivity)
	}
	if sc.CoeffEpsilon != nil {
		cfg.CoeffEpsilon = *sc.CoeffEpsilon
	}
	if sc.MinClusterCells != nil {
		cfg.MinClusterCells = *sc.MinClusterCells
	}
	if sc.MinClusterMass != nil {
		cfg.MinClusterMass = *sc.MinClusterMass
	}
	if sc.Embedding != nil {
		cfg.Embedding = adawave.Embedding{Kind: sc.Embedding.Kind, K: sc.Embedding.K, Seed: sc.Embedding.Seed}
	}
	return cfg, cfg.Validate()
}

// embeddingDTO renders a config's embedding spec for the wire; nil when the
// session runs without one.
func embeddingDTO(e adawave.Embedding) *api.EmbeddingSpec {
	if !e.Enabled() {
		return nil
	}
	return &api.EmbeddingSpec{Kind: e.Kind, K: e.K, Seed: e.Seed}
}

func (s *server) createSession(w http.ResponseWriter, r *http.Request) {
	cfg, err := sessionConfig(r.Body)
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidInput, err.Error())
		return
	}
	c, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(s.workers))
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidInput, err.Error())
		return
	}
	sess := c.NewSession()
	tenant := sched.TenantFrom(r.Context())
	// A router pins the id it placed on the ring via the session-id header,
	// so placement happens before creation; direct clients let the server
	// mint one.
	id := r.Header.Get(api.HeaderSessionID)
	if id != "" {
		if !validSessionID(id) {
			writeCode(w, http.StatusBadRequest, api.CodeInvalidInput,
				fmt.Sprintf("bad %s %q (want 1-64 chars of [a-zA-Z0-9_-])", api.HeaderSessionID, id))
			return
		}
		s.mu.RLock()
		_, taken := s.sessions[id]
		s.mu.RUnlock()
		if taken {
			writeCode(w, http.StatusConflict, api.CodeConflict, fmt.Sprintf("session %q already exists", id))
			return
		}
	} else {
		id = "s" + strconv.FormatUint(s.nextID.Add(1), 10)
	}
	ss := newServeSession(id, tenant, sess, nil, s.workers)
	if s.disk != nil {
		d, err := s.disk.Create(id, core.ConfigFingerprint(sess.Config()), tenant)
		if errors.Is(err, fs.ErrExist) {
			// A racing create of the same pinned id, or a directory boot
			// recovery left for inspection: either way not ours to touch.
			writeCode(w, http.StatusConflict, api.CodeConflict, fmt.Sprintf("session %q already exists", id))
			return
		}
		if err != nil {
			writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("session storage: %v", err))
			return
		}
		ss.files = &sessionFiles{SessionDir: d}
	}
	s.mu.Lock()
	if len(s.sessions) >= s.maxSessions {
		s.mu.Unlock()
		if ss.files != nil {
			ss.files.Drop()
		}
		writeCode(w, http.StatusTooManyRequests, api.CodeSessionLimit, fmt.Sprintf("session limit %d reached", s.maxSessions))
		return
	}
	if _, taken := s.sessions[id]; taken {
		// Two creates raced the same pinned id; the loser backs off. Create
		// is exclusive, so a directory it made is its own to drop.
		s.mu.Unlock()
		if ss.files != nil {
			ss.files.Drop()
		}
		writeCode(w, http.StatusConflict, api.CodeConflict, fmt.Sprintf("session %q already exists", id))
		return
	}
	s.sessions[id] = ss
	s.mu.Unlock()
	s.listVer.Bump()
	s.enforceResidency()
	writeJSON(w, http.StatusCreated, api.CreateSessionResponse{ID: id, Tenant: tenant})
}

func (s *server) listSessions(w http.ResponseWriter, r *http.Request) {
	// Shapes come from the cached lastPoints/lastDim (refreshed whenever the
	// session is live), so listing never rehydrates an evicted session and
	// never queues behind a long recompute holding a session's own lock.
	entries := s.snapshotSessions()
	rows := make([]api.SessionInfo, 0, len(entries))
	for _, ss := range entries {
		points, dim := ss.shape()
		rows = append(rows, api.SessionInfo{
			ID: ss.id, Points: points, Dim: dim,
			Tenant: ss.tenant, Resident: ss.resident(),
		})
	}
	// A follower's registry is empty; its warm replicas are the sessions it
	// would serve after a promote, so list them.
	if s.replica != nil {
		for _, id := range s.replica.IDs() {
			if sess, tenant, ok := s.replica.Lookup(id); ok {
				rows = append(rows, api.SessionInfo{
					ID: id, Points: sess.Len(), Dim: sess.Dim(),
					Tenant: tenant, Resident: true,
				})
			}
		}
	}
	writeJSON(w, http.StatusOK, api.ListSessionsResponse{Sessions: rows})
}

// healthz is the liveness probe: always 200 while the process serves.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, api.HealthzResponse{Status: "ok", Sessions: n})
}

// sessionDetail answers GET /v1/sessions/{id}: shape, live-grid cell count
// (pending mutations folded, cancellable via the request context) and the
// durability state. On a follower the registry is empty and the detail is
// served from the warm replica instead — including the replication lag,
// which is how an operator (or a test) observes a follower catching up.
func (s *server) sessionDetail(w http.ResponseWriter, r *http.Request) {
	if s.replica != nil {
		s.mu.RLock()
		_, inRegistry := s.sessions[r.PathValue("id")]
		s.mu.RUnlock()
		if !inRegistry {
			s.replicaDetail(w, r)
			return
		}
	}
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	sess, err := ss.acquire(s)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("rehydrate: %v", err))
		return
	}
	detail := api.SessionDetail{
		ID: ss.id, Points: sess.Len(), Dim: sess.Dim(),
		Tenant: ss.tenant, Resident: true, ResidentBytes: sess.ResidentBytes(),
		Embedding: embeddingDTO(sess.Config().Embedding),
	}
	if detail.Points > 0 {
		cells, err := sess.CellsContext(r.Context())
		if err != nil {
			s.writeReadErr(w, r, err)
			return
		}
		detail.Cells = cells
		s.gov.SetSessionCells(ss.tenant, ss.id, cells)
	}
	if ss.files != nil {
		// The checkpoint sequence is atomic, so this monitoring read never
		// queues behind a long mutation holding the writer lock.
		detail.Durable = true
		detail.LastCheckpointSeq = ss.files.CheckpointSeq()
		if role, _ := s.role.Load().(string); role == rolePrimary {
			seq := ss.files.WAL().Seq()
			detail.Replication = &api.ReplicationStatus{Role: rolePrimary, AppliedSeq: seq, PrimarySeq: seq}
		}
	}
	writeJSON(w, http.StatusOK, detail)
}

// lookup resolves {id}; a miss writes the 404 and returns nil. A hit counts
// as a touch for the eviction LRU.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *serveSession {
	id := r.PathValue("id")
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		writeCode(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown session %q", id))
		return nil
	}
	sess.touch()
	return sess
}

func (s *server) appendPoints(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	// A JSON body is read and decoded before the writer lock, as in
	// removePoints, so a slow uploader holds up no other writer of the
	// session. A text/csv body streams into the session chunk by chunk and
	// is read under the lock below.
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var body api.AppendRequest
	if ct != "text/csv" {
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			s.writeBodyErr(w, r, fmt.Errorf("bad batch: %w", err))
			return
		}
	}
	// One mutation request at a time per session: this upholds the
	// Session's one-writer contract across HTTP clients and guarantees the
	// rollback below only ever removes this request's own points. Queued
	// writers give up at their request deadline (504) or on client
	// disconnect (499) instead of blocking unresponsively.
	if err := ss.lockWrite(r.Context()); err != nil {
		s.writeReadErr(w, r, err)
		return
	}
	defer ss.unlockWrite()
	sess, err := ss.acquire(s)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("rehydrate: %v", err))
		return
	}
	var appended int
	switch ct {
	case "text/csv":
		// Chunked ingestion: the body streams through the batch reader in
		// -csv-batch chunks, so a large upload is never JSON-materialized at
		// once. On a mid-stream error — a parse failure, or the request
		// deadline expiring (checked between chunks, since TimeoutHandler
		// answers 503 but does not stop this goroutine) — the already-
		// appended chunks are rolled back, so a failed upload is atomic and
		// a client retry cannot duplicate points. The upload is journaled as
		// ONE record after it fully succeeds, never per chunk: a crash
		// mid-upload must leave nothing in the log (the client saw an error
		// and will re-send the whole body), so the crash-recovered session
		// holds no half-applied upload to duplicate. The journal copy
		// (uploaded) is bounded by the upload itself, which the session
		// retains anyway.
		ctx := r.Context()
		var uploaded *pointset.Dataset
		if ss.files != nil {
			uploaded = &pointset.Dataset{}
		}
		err := dataio.EachBatch(r.Body, s.csvBatch, func(ds *pointset.Dataset, labels []int) error {
			if sess.Len()+ds.N > s.maxPoints {
				return errPointLimit(s.maxPoints)
			}
			// Tenant points quota, admitted per chunk against the committed
			// footprint plus this upload's own progress; a breach rolls the
			// whole upload back below (429, nothing committed).
			if qe := s.gov.AdmitPoints(ss.tenant, int64(appended+ds.N)); qe != nil {
				return qe
			}
			// AppendContext refuses the chunk once the request deadline
			// expired or the client went away, so an aborted upload stops
			// between chunks and rolls back below.
			if err := sess.AppendContext(ctx, ds); err != nil {
				return err
			}
			appended += ds.N
			if uploaded != nil {
				uploaded.D = ds.D
				uploaded.Data = append(uploaded.Data, ds.Data[:ds.N*ds.D]...)
				uploaded.N += ds.N
			}
			return nil
		})
		if err == nil && uploaded != nil && uploaded.N > 0 {
			err = ss.journalAppend(uploaded)
		}
		if err != nil {
			if appended > 0 {
				if rerr := dropTail(sess, appended); rerr != nil {
					writeCode(w, http.StatusInternalServerError, api.CodeInternal,
						fmt.Sprintf("%v (and rolling back %d appended points failed: %v)", err, appended, rerr))
					return
				}
			}
			s.writeBodyErr(w, r, err)
			return
		}
	default:
		if sess.Len()+len(body.Points) > s.maxPoints {
			writeCode(w, http.StatusRequestEntityTooLarge, api.CodePointLimit, errPointLimit(s.maxPoints).Error())
			return
		}
		if qe := s.gov.AdmitPoints(ss.tenant, int64(len(body.Points))); qe != nil {
			s.writeQuotaErr(w, qe)
			return
		}
		ds, err := pointset.FromSlices(body.Points)
		if err != nil {
			writeCode(w, http.StatusBadRequest, api.CodeInvalidInput, err.Error())
			return
		}
		// AppendContext refuses the mutation once the deadline expired or
		// the client went away: a client retry must never duplicate the
		// batch it believes failed.
		if err := sess.AppendContext(r.Context(), ds); err != nil {
			s.writeMutationErr(w, r, err)
			return
		}
		if err := ss.journalAppend(ds); err != nil {
			// The batch is not durable: roll it back so the 500 keeps the
			// mutation at-most-once under client retries.
			if rerr := dropTail(sess, ds.N); rerr != nil {
				err = fmt.Errorf("%v (and rolling back failed: %v)", err, rerr)
			}
			writeCode(w, http.StatusInternalServerError, api.CodeDurability, err.Error())
			return
		}
		appended = ds.N
	}
	s.gov.AddPoints(ss.tenant, int64(appended))
	ss.cacheShape(sess)
	writeJSON(w, http.StatusOK, api.AppendResponse{Appended: appended, Points: sess.Len()})
}

// dropTail removes the session's last k points: the rollback of a failed
// append. It runs on a fresh context, since it must succeed even when the
// failure being rolled back is the request's own dead context.
func dropTail(sess *adawave.Session, k int) error {
	if k == 0 {
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = sess.Len() - k + i
	}
	return sess.RemoveContext(context.Background(), idx)
}

// errPointLimit is the over-cap mutation error, recognized by writeBodyErr
// so the CSV path classifies it 413 point_limit like the JSON path.
type pointLimitError int

func errPointLimit(limit int) error { return pointLimitError(limit) }

func (e pointLimitError) Error() string {
	return fmt.Sprintf("session point limit %d reached", int(e))
}

func (s *server) removePoints(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	indices, err := removeIndices(r.Body)
	if err != nil {
		s.writeBodyErr(w, r, err)
		return
	}
	if err := ss.lockWrite(r.Context()); err != nil {
		s.writeReadErr(w, r, err)
		return
	}
	defer ss.unlockWrite()
	sess, err := ss.acquire(s)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("rehydrate: %v", err))
		return
	}
	// RemoveContext refuses the mutation once the deadline expired or the
	// client went away: a client retry must never double-remove shifted
	// indices.
	if err := sess.RemoveContext(r.Context(), indices); err != nil {
		s.writeMutationErr(w, r, err)
		return
	}
	if err := ss.journalRemove(indices); err != nil {
		// Neither the WAL nor the fallback checkpoint took the removal, and
		// it cannot be undone in place: park the session so it rebuilds
		// from its durable state, which never saw the removal. The session
		// stays broken — mutations refused — until a checkpoint succeeds.
		ss.live.Store(nil)
		if _, rerr := ss.rehydrate(s); rerr != nil {
			err = fmt.Errorf("%v (and reloading the session failed: %v)", err, rerr)
		}
		writeCode(w, http.StatusInternalServerError, api.CodeDurability, err.Error())
		return
	}
	s.gov.AddPoints(ss.tenant, -int64(len(indices)))
	ss.cacheShape(sess)
	writeJSON(w, http.StatusOK, api.RemoveResponse{Removed: len(indices), Points: sess.Len()})
}

// removeIndices decodes a remove-points body, an api.RemoveRequest, into
// its indices. Their range and uniqueness are Session.RemoveContext's to
// check.
func removeIndices(body io.Reader) ([]int, error) {
	var rr api.RemoveRequest
	if err := json.NewDecoder(body).Decode(&rr); err != nil {
		return nil, fmt.Errorf("bad body: %w", err)
	}
	return rr.Indices, nil
}

func toAPIResult(res *adawave.Result, withLabels bool) api.Result {
	out := api.Result{
		NumClusters:      res.NumClusters,
		Noise:            res.NoiseCount(),
		Threshold:        res.Threshold,
		Levels:           res.Levels,
		Scale:            res.Scale,
		CellsQuantized:   res.CellsQuantized,
		CellsTransformed: res.CellsTransformed,
		CellsKept:        res.CellsKept,
	}
	if withLabels {
		out.Labels = res.Labels
	}
	return out
}

// ndjsonChunk is how many labels each streamed NDJSON line carries.
const ndjsonChunk = 8192

// wantsNDJSON reports whether the client negotiated the streaming label
// representation.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

func (s *server) labels(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	sess, err := ss.acquire(s)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("rehydrate: %v", err))
		return
	}
	// Concurrent-folds quota: the tenant's compute passes are bounded, so a
	// tenant spamming label reads queues behind its own limit, not everyone
	// else's latency.
	release, qe := s.gov.AcquireFold(ss.tenant)
	if qe != nil {
		s.writeQuotaErr(w, qe)
		return
	}
	defer release()
	// The request context rides into the pipeline: a client disconnect or
	// the request deadline aborts the compute at the next shard boundary
	// and the session stays exactly as it was.
	res, err := sess.ResultContext(r.Context())
	if err != nil {
		s.writeReadErr(w, r, err)
		return
	}
	s.gov.SetSessionCells(ss.tenant, ss.id, res.CellsQuantized)
	if wantsNDJSON(r) {
		s.streamLabels(w, r, res)
		return
	}
	out := toAPIResult(res, true)
	writeAppended(w, func(b []byte) []byte { return api.AppendResult(b, &out) })
}

// bodyBufs pools the response buffers of the label routes, whose bodies
// are a few bytes per point.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended answers 200 application/json with the body build appends
// to a pooled buffer, in one Write: the label routes' json.Encoder
// rendering, written by the internal/api label codec.
func writeAppended(w http.ResponseWriter, build func([]byte) []byte) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	*bp = build((*bp)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp) // the status is sent; a failed write is a client gone
}

// streamLabels writes the NDJSON representation: one meta line, then the
// label vector in ndjsonChunk-sized lines, each flushed as soon as it is
// encoded — a million-label session streams in constant server memory
// instead of materializing one giant JSON array. The chunk lines go
// through the internal/api label codec, the meta line through
// encoding/json.
func (s *server) streamLabels(w http.ResponseWriter, r *http.Request, res *adawave.Result) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var meta api.LabelsMeta
	meta.Meta.Result = toAPIResult(res, false)
	meta.Meta.Points = len(res.Labels)
	meta.Meta.Chunk = ndjsonChunk
	if err := json.NewEncoder(w).Encode(meta); err != nil {
		return
	}
	_ = rc.Flush()
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	for off := 0; off < len(res.Labels); off += ndjsonChunk {
		if r.Context().Err() != nil {
			// The 200 header is long gone, so instrument() cannot see this
			// abort by status; record it explicitly so a mid-stream hang-up
			// still shows in the clientAborts counter and the abort log.
			s.noteStreamAbort(r, "labels")
			return
		}
		end := off + ndjsonChunk
		if end > len(res.Labels) {
			end = len(res.Labels)
		}
		*bp = api.AppendLabelsChunk((*bp)[:0], off, res.Labels[off:end])
		if _, err := w.Write(*bp); err != nil {
			return
		}
		_ = rc.Flush()
	}
}

// noteStreamAbort records a client disconnect that landed mid-stream,
// after the status line was already written: the route's clientAborts
// counter is bumped directly (the 200 already on the wire can't be
// reclassified) and the abort is logged like a pre-compute 499.
func (s *server) noteStreamAbort(r *http.Request, route string) {
	s.metrics.register(route).clientAborts.Add(1)
	log.Printf("adawave-serve: request %s %s %s: stream aborted by client disconnect",
		requestIDFrom(r.Context()), r.Method, r.URL.Path)
}

func (s *server) multiResolution(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	maxLevels := 3
	if v := r.URL.Query().Get("levels"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeCode(w, http.StatusBadRequest, api.CodeInvalidInput, fmt.Sprintf("bad levels %q", v))
			return
		}
		maxLevels = n
	}
	withLabels := r.URL.Query().Get("labels") != "false"
	sess, err := ss.acquire(s)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("rehydrate: %v", err))
		return
	}
	release, qe := s.gov.AcquireFold(ss.tenant)
	if qe != nil {
		s.writeQuotaErr(w, qe)
		return
	}
	defer release()
	results, err := sess.MultiResolutionContext(r.Context(), maxLevels)
	if err != nil {
		s.writeReadErr(w, r, err)
		return
	}
	out := make([]api.Result, len(results))
	for i, res := range results {
		out[i] = toAPIResult(res, withLabels)
	}
	writeAppended(w, func(b []byte) []byte {
		return api.AppendMultiResolution(b, &api.MultiResolutionResponse{Levels: out})
	})
}

// checkpointSession is the admin endpoint: force a checkpoint now (folding
// the WAL into a fresh full-state file and truncating the log), e.g. before
// a planned deploy to make the subsequent recovery O(read) with no replay.
func (s *server) checkpointSession(w http.ResponseWriter, r *http.Request) {
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	if ss.files == nil {
		writeCode(w, http.StatusConflict, api.CodeConflict, "persistence is disabled (start with -data-dir)")
		return
	}
	if err := ss.lockWrite(r.Context()); err != nil {
		s.writeReadErr(w, r, err)
		return
	}
	defer ss.unlockWrite()
	sess, err := ss.acquire(s)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("rehydrate: %v", err))
		return
	}
	seq, err := ss.checkpointLocked()
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("checkpoint: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.CheckpointResponse{Seq: seq, Points: sess.Len()})
}

func (s *server) deleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ss, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeCode(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	s.listVer.Bump()
	if ss.files != nil {
		// Dropping the session drops its durable state too; in-flight
		// mutations finished before the registry delete (or 404 after it).
		ss.lockWrite(context.Background())
		if err := ss.files.Drop(); err != nil {
			log.Printf("adawave-serve: remove session dir: %v", err)
		}
		ss.unlockWrite()
	}
	points, _ := ss.shape()
	s.gov.DropSession(ss.tenant, ss.id, points)
	w.WriteHeader(http.StatusNoContent)
}

// writeReadErr maps pipeline failures through the taxonomy (api.Classify):
// an empty session is the caller's sequencing problem (409 no_points);
// errors the client can fix by changing its data or session configuration —
// a non-finite coordinate, a grid too small for the configured levels, a
// transform-densified high-dimensional grid — are 422 invalid_input; a
// pipeline aborted by the client's own disconnect is 499 canceled and is
// logged as a client abort, never counted as a server error; an expired
// request deadline is 504 deadline_exceeded; everything else (engine
// invariants, IO) is an internal fault and must say so with a 500, not
// blame the request.
func (s *server) writeReadErr(w http.ResponseWriter, r *http.Request, err error) {
	status, code := api.Classify(err)
	if status == http.StatusTooManyRequests && code == api.CodeResourceExhausted {
		// Quota rejections carry the Retry-After header and the structured
		// details of the backpressure contract.
		s.writeQuotaErr(w, err)
		return
	}
	switch status {
	case api.StatusClientClosedRequest:
		// The response is written into a torn-down connection; the log line
		// (and the 499 in the metrics) is the observable record.
		log.Printf("adawave-serve: request %s %s %s: pipeline aborted by client disconnect: %v",
			requestIDFrom(r.Context()), r.Method, r.URL.Path, err)
	case http.StatusConflict:
		if code == api.CodeNoPoints {
			writeCode(w, status, code, "session has no points")
			return
		}
	}
	writeCode(w, status, code, err.Error())
}

// writeMutationErr maps a session mutation failure: an input-shaped error —
// a dimension mismatch, an out-of-range or duplicate remove index — is the
// caller's mistake and answers 400 invalid_input (not the 422 of a failed
// read, and never a 500 that would blame the server); everything else (a
// dead context, an internal fault) routes through writeReadErr.
func (s *server) writeMutationErr(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, adawave.ErrInvalidInput) {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidInput, err.Error())
		return
	}
	s.writeReadErr(w, r, err)
}

// writeBodyErr maps request-body failures: a durability fault is the
// server's (500), an over-cap body or point count is retryable-after-split
// (413), a dead request context classifies as 499/504, anything else is
// malformed input (400).
func (s *server) writeBodyErr(w http.ResponseWriter, r *http.Request, err error) {
	var ple pointLimitError
	_, code := api.Classify(err)
	switch {
	case errors.Is(err, errDurability):
		writeCode(w, http.StatusInternalServerError, api.CodeDurability, err.Error())
	case errors.As(err, &ple):
		writeCode(w, http.StatusRequestEntityTooLarge, api.CodePointLimit, err.Error())
	case code == api.CodeTooLarge || code == api.CodeCanceled ||
		code == api.CodeDeadlineExceeded || code == api.CodeResourceExhausted:
		s.writeReadErr(w, r, err)
	default:
		writeCode(w, http.StatusBadRequest, api.CodeInvalidInput, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeCode writes the structured v1 error envelope.
func writeCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.ErrorResponse{Error: api.ErrorBody{Code: code, Message: msg}})
}
