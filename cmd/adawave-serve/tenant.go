package main

// Multi-tenant resource governance: API-key → tenant extraction, quota
// admission, the tenant usage endpoint, and the session eviction manager.
//
// Every request is tagged with a tenant — the one its X-API-Key maps to
// under -tenants, or "default" when no key is sent — and that tenant rides
// the request context into the engine together with the process-wide worker
// pool (internal/sched), so all fan-out stages draw shards from one fairly
// scheduled pool instead of spawning per-request goroutines. Quotas
// (-quota-points, -quota-cells, -quota-folds, -quota-qps) are enforced at
// admission: an over-quota request answers 429 resource_exhausted with a
// Retry-After header and the machine-readable details of the backpressure
// contract, and nothing executes.
//
// The eviction manager bounds resident memory by -max-resident-sessions and
// -max-resident-bytes: when the budget is exceeded, the least recently
// touched idle session is checkpointed (truncating its WAL, so the
// checkpoint alone is the complete state) and its live pointer cleared; the
// next request touching it rehydrates from that checkpoint, bit-identical.
// Sessions whose writer lock is held are never evicted, so a mutation or
// checkpoint in flight always completes against the object it started with.

import (
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/sched"
)

// parseTenants parses the -tenants flag: comma-separated key=tenant pairs
// (e.g. "k1=alice,k2=bob,k3=bob" — several keys may share a tenant).
func parseTenants(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		key, tenant, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || key == "" || tenant == "" {
			return nil, fmt.Errorf("bad -tenants entry %q (want key=tenant)", pair)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate API key in -tenants")
		}
		out[key] = tenant
	}
	return out, nil
}

// withTenant resolves the request's tenant from X-API-Key, applies the QPS
// admission quota, and attaches tenant + worker pool to the request context
// so the engine's fan-out stages draw from the shared pool under the
// tenant's fair-scheduler queue. /healthz is exempt from admission — a
// liveness probe must not be rate-limited into flapping.
func (s *server) withTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := sched.DefaultTenant
		if key := r.Header.Get("X-API-Key"); key != "" && len(s.tenants) > 0 {
			t, ok := s.tenants[key]
			if !ok {
				writeCode(w, http.StatusForbidden, api.CodeInvalidInput, "unknown API key")
				return
			}
			tenant = t
		}
		ctx := sched.WithTenant(sched.WithPool(r.Context(), s.pool), tenant)
		r = r.WithContext(ctx)
		// /healthz and the node-to-node replication endpoints are exempt
		// from admission: a liveness probe must not be rate-limited into
		// flapping, and a follower catching up must not consume the quota
		// of the tenants whose data it replicates.
		if r.URL.Path != "/healthz" && !strings.HasPrefix(r.URL.Path, "/v1/replication/") {
			if qe := s.gov.AdmitRequest(tenant); qe != nil {
				s.writeQuotaErr(w, qe)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// writeQuotaErr renders a quota rejection as the standardized backpressure
// contract: 429, a Retry-After header, and the resource_exhausted envelope
// whose details say which quota, the tenant's standing, and when to retry.
func (s *server) writeQuotaErr(w http.ResponseWriter, err error) {
	details, retry, ok := api.QuotaDetails(err)
	if !ok {
		retry = time.Second
	}
	w.Header().Set("Retry-After", strconv.FormatInt(int64(retry/time.Second), 10))
	writeJSON(w, http.StatusTooManyRequests, api.ErrorResponse{Error: api.ErrorBody{
		Code:    api.CodeResourceExhausted,
		Message: err.Error(),
		Details: details,
	}})
}

// tenantUsage answers GET /v1/tenants/{id}/usage: the governor's accounting
// (points, cells, folds, observed QPS, quota limits) merged with the
// registry's residency view.
func (s *server) tenantUsage(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("id")
	u := s.gov.Usage(tenant)
	out := api.TenantUsage{
		Tenant: tenant,
		Points: u.Points,
		Cells:  u.Cells,
		Folds:  u.Folds,
		QPS:    u.QPS,
		Quota: api.QuotaLimits{
			MaxPoints:          u.Quota.MaxPoints,
			MaxCells:           u.Quota.MaxCells,
			MaxConcurrentFolds: u.Quota.MaxConcurrentFolds,
			MaxQPS:             u.Quota.MaxQPS,
		},
	}
	for _, ss := range s.snapshotSessions() {
		if ss.tenant != tenant {
			continue
		}
		out.Sessions++
		if sess := ss.live.Load(); sess != nil {
			out.ResidentSessions++
			out.ResidentBytes += sess.ResidentBytes()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- session eviction & rehydration ----

func (ss *serveSession) resident() bool { return ss.live.Load() != nil }

func (ss *serveSession) touch() { ss.lastTouch.Store(time.Now().UnixNano()) }

// cacheShape refreshes the lock-free shape cache the session lists (and the
// governor teardown) read. Every path that changes the session's rows calls
// it once the change is committed — append and remove under the writer
// lock, plus registration, rehydration and eviction, which install or park
// the object — so the cache holds the committed shape; an upload in flight,
// or one rolled back, never shows.
func (ss *serveSession) cacheShape(sess *adawave.Session) {
	ss.lastPoints.Store(int64(sess.Len()))
	ss.lastDim.Store(int64(sess.Dim()))
}

// shape returns the session's committed point count and dimensionality
// from the cache alone: it never rehydrates an evicted session, and never
// takes the session's lock, which a label recompute holds for its whole
// pass.
func (ss *serveSession) shape() (points, dim int) {
	return int(ss.lastPoints.Load()), int(ss.lastDim.Load())
}

// acquire returns the session's live engine object, transparently
// rehydrating it from its checkpoint if the eviction manager parked it.
// Callers mutating the session hold the writer lock first (lock order:
// writeSem → hydrateMu, same as the evictor).
func (ss *serveSession) acquire(s *server) (*adawave.Session, error) {
	ss.touch()
	if sess := ss.live.Load(); sess != nil {
		return sess, nil
	}
	return ss.rehydrate(s)
}

// rehydrate rebuilds the session from its durable state (newest checkpoint
// plus WAL tail), single-flight under hydrateMu. Eviction parks a session
// right after a successful checkpoint, so the tail is normally empty; a
// removal that could not be made durable parks it with the tail intact.
func (ss *serveSession) rehydrate(s *server) (*adawave.Session, error) {
	ss.hydrateMu.Lock()
	defer ss.hydrateMu.Unlock()
	if sess := ss.live.Load(); sess != nil {
		return sess, nil
	}
	if ss.files == nil {
		return nil, fmt.Errorf("session %s evicted without durable state", ss.id)
	}
	c, err := adawave.New(adawave.WithConfig(ss.cfg), adawave.WithWorkers(ss.workers))
	var sess *adawave.Session
	if err == nil {
		sess, err = ss.files.Reload(c)
	}
	if err != nil {
		return nil, fmt.Errorf("rehydrate %s: %w", ss.id, err)
	}
	ss.live.Store(sess)
	ss.cacheShape(sess)
	log.Printf("adawave-serve: session %s rehydrated (%d points)", ss.id, sess.Len())
	// Making this session resident may push the fleet over budget; evict
	// someone colder (this session was just touched, so the LRU passes it
	// over while any other candidate exists).
	s.enforceResidency()
	return sess, nil
}

// evictLocked checkpoints the session and clears its live pointer. The
// caller holds the writer lock, so no mutation is in flight; readers still
// computing on the old object finish safely against it (a Session stays
// valid until unreferenced — the checkpoint waited for their lock anyway).
func (ss *serveSession) evictLocked() bool {
	sess := ss.live.Load()
	if sess == nil || ss.files == nil || ss.files.broken {
		return false
	}
	ss.cacheShape(sess)
	if _, err := ss.checkpointLocked(); err != nil {
		log.Printf("adawave-serve: evict %s: checkpoint failed, keeping resident: %v", ss.id, err)
		return false
	}
	ss.live.Store(nil)
	return true
}

// enforceResidency evicts least-recently-touched idle sessions until the
// resident count and byte estimate fit the configured budget. Sessions with
// a held writer lock (a mutation or checkpoint in flight) are skipped this
// round; if every candidate is busy the budget is allowed to overshoot
// temporarily rather than block request traffic.
func (s *server) enforceResidency() {
	if s.maxResident <= 0 && s.maxResidentBytes <= 0 {
		return
	}
	for {
		var resident int
		var bytes int64
		var cands []*serveSession
		for _, ss := range s.snapshotSessions() {
			sess := ss.live.Load()
			if sess == nil {
				continue
			}
			resident++
			bytes += sess.ResidentBytes()
			if ss.files != nil {
				cands = append(cands, ss)
			}
		}
		over := (s.maxResident > 0 && resident > s.maxResident) ||
			(s.maxResidentBytes > 0 && bytes > s.maxResidentBytes)
		if !over || len(cands) == 0 {
			return
		}
		sort.Slice(cands, func(a, b int) bool {
			return cands[a].lastTouch.Load() < cands[b].lastTouch.Load()
		})
		evicted := false
		for _, ss := range cands {
			select {
			case ss.writeSem <- struct{}{}: // idle: nothing holds the writer lock
			default:
				continue
			}
			ok := ss.evictLocked()
			ss.unlockWrite()
			if ok {
				log.Printf("adawave-serve: session %s evicted to checkpoint (residency budget)", ss.id)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}
