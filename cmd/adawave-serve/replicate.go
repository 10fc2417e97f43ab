package main

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/persist"
)

// Cluster roles. A standalone node serves alone (the default, and the whole
// story before cluster mode). A primary serves traffic AND exposes the
// replication feed below. A follower runs the replication engine against
// -follower-of, serves only health, metrics, read-only listings and the
// replication endpoints, and becomes a primary when the router POSTs
// promote. The replication feed is pull-based: the follower asks for the
// session list, downloads each session's newest checkpoint, then tails the
// WAL over a long-lived response — the primary keeps no per-follower state,
// so a follower can crash and re-attach with nothing to clean up.
const (
	roleStandalone = "standalone"
	rolePrimary    = "primary"
	roleFollower   = "follower"
)

// walStreamPoll is how long the WAL stream handler naps when the log has no
// new frames; the poll only bounds idle-stream latency (a busy log streams
// back-to-back), so replication lag under load is write-speed, not this.
const walStreamPoll = 25 * time.Millisecond

// validSessionID bounds router-pinned ids to the same shape server-minted
// ids have: path-safe, short, no separators.
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// clusterAuth gates a /v1/replication/ handler behind the shared cluster
// secret: the feed hands out every tenant's full session data and promote
// permanently rewires replication, so with -cluster-secret set no request
// is served without the matching credential. With no secret configured the
// endpoints stay open — a single-trust-domain deployment — which the
// cluster quickstart documents alongside the flag.
func (s *server) clusterAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.clusterSecret != "" &&
			subtle.ConstantTimeCompare([]byte(r.Header.Get(api.HeaderClusterSecret)), []byte(s.clusterSecret)) != 1 {
			writeCode(w, http.StatusUnauthorized, api.CodeUnauthorized,
				fmt.Sprintf("missing or wrong %s (this node runs with -cluster-secret)", api.HeaderClusterSecret))
			return
		}
		next(w, r)
	}
}

func (s *server) currentRole() string {
	role, _ := s.role.Load().(string)
	return role
}

func (s *server) isFollower() bool { return s.currentRole() == roleFollower }

// withRole gates the route table by cluster role: a follower accepts
// health, metrics, the replication endpoints and read-only session listings
// (its warm replicas, observable mid-catch-up), and answers 409 not_primary
// to everything else — mutations and label reads belong on the primary
// until a promote flips the role, at which point this middleware stands
// aside without a restart.
func (s *server) withRole(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.isFollower() || followerAllows(r) {
			next.ServeHTTP(w, r)
			return
		}
		writeCode(w, http.StatusConflict, api.CodeNotPrimary,
			"this node is a follower; send mutations and reads to its primary (or the cluster router)")
	})
}

// followerAllows reports whether a follower serves the request itself.
func followerAllows(r *http.Request) bool {
	p := r.URL.Path
	switch {
	case p == "/healthz", p == "/v1/metrics":
		return true
	case strings.HasPrefix(p, "/v1/replication/"):
		return true
	case r.Method == http.MethodGet && p == "/v1/sessions":
		return true
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/sessions/") &&
		!strings.Contains(strings.TrimPrefix(p, "/v1/sessions/"), "/"):
		// Session detail only — labels/multiresolution subpaths stay on the
		// primary, which has read-your-writes consistency.
		return true
	}
	return false
}

// replicationSessions answers GET /v1/replication/sessions: the durable
// sessions a follower should replicate, each with its config fingerprint
// (so the follower rebuilds an identical engine) and current checkpoint/WAL
// sequences.
func (s *server) replicationSessions(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		writeCode(w, http.StatusConflict, api.CodeNotPrimary, "followers do not serve the replication feed")
		return
	}
	if s.disk == nil {
		writeCode(w, http.StatusConflict, api.CodeConflict, "persistence is disabled (start with -data-dir)")
		return
	}
	rows := make([]api.ReplicationSessionInfo, 0)
	for _, ss := range s.snapshotSessions() {
		if ss.files == nil {
			continue
		}
		points, dim := ss.shape()
		rows = append(rows, api.ReplicationSessionInfo{
			ID: ss.id, Tenant: ss.tenant,
			Config:        core.ConfigFingerprint(ss.cfg),
			CheckpointSeq: ss.files.CheckpointSeq(),
			WALSeq:        ss.files.WAL().Seq(),
			Points:        points, Dim: dim,
		})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].ID < rows[b].ID })
	writeJSON(w, http.StatusOK, api.ReplicationSessionsResponse{Role: s.currentRole(), Sessions: rows})
}

// replicationCheckpoint streams the session's newest checkpoint file, its
// folded-in sequence in a header; 204 (seq 0) when the session has never
// checkpointed — the follower then starts empty and lets the WAL stream
// carry the whole history. Once the file is open, the post-checkpoint sweep
// unlinking it cannot hurt the transfer (see SessionDir.OpenCheckpoint).
func (s *server) replicationCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		writeCode(w, http.StatusConflict, api.CodeNotPrimary, "followers do not serve the replication feed")
		return
	}
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	if ss.files == nil {
		writeCode(w, http.StatusConflict, api.CodeConflict, "persistence is disabled (start with -data-dir)")
		return
	}
	f, seq, err := ss.files.OpenCheckpoint()
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("checkpoint open: %v", err))
		return
	}
	if f == nil {
		w.Header().Set(api.HeaderCheckpointSeq, "0")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	defer f.Close()
	w.Header().Set(api.HeaderCheckpointSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if fi, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	}
	w.WriteHeader(http.StatusOK)
	if _, err := io.Copy(w, f); err != nil {
		log.Printf("adawave-serve: checkpoint transfer %s: %v", ss.id, err)
	}
}

// replicationWAL answers GET /v1/replication/sessions/{id}/wal?from=N: a
// long-lived stream of WAL frames with sequence > N, shipped verbatim —
// the follower journals the same bytes it applies, so the two logs are
// byte-identical. The stream reads through a Tailer (its own fd, bounded by
// the WAL's acknowledged size, so it never sees a half-written record) and
// ends cleanly when the log is reset by a checkpoint or a record is torn;
// the follower reconnects from its last applied sequence. A from below the
// newest checkpoint's sequence cannot be served — those frames are gone —
// and answers 409 replication_restart, directing the follower to a full
// checkpoint re-sync.
func (s *server) replicationWAL(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		writeCode(w, http.StatusConflict, api.CodeNotPrimary, "followers do not serve the replication feed")
		return
	}
	ss := s.lookup(w, r)
	if ss == nil {
		return
	}
	if ss.files == nil {
		writeCode(w, http.StatusConflict, api.CodeConflict, "persistence is disabled (start with -data-dir)")
		return
	}
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeCode(w, http.StatusBadRequest, api.CodeInvalidInput, fmt.Sprintf("bad from %q", v))
			return
		}
		from = n
	}
	if ckpt := ss.files.CheckpointSeq(); from < ckpt {
		writeCode(w, http.StatusConflict, api.CodeReplicationRestart,
			fmt.Sprintf("frames after seq %d start inside the checkpoint (seq %d); re-sync from the checkpoint", from, ckpt))
		return
	}
	t, err := ss.files.WAL().NewTailer(from)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("wal tail: %v", err))
		return
	}
	defer t.Close()
	w.Header().Set(api.HeaderWALSeq, strconv.FormatUint(ss.files.WAL().Seq(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()
	ctx := r.Context()
	for {
		frame, _, err := t.Next()
		switch {
		case err == nil:
			if _, werr := w.Write(frame); werr != nil {
				return // follower went away
			}
		case errors.Is(err, persist.ErrNoFrame):
			// Caught up: push what's buffered and wait for new appends.
			if ferr := rc.Flush(); ferr != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-s.stop:
				return
			case <-time.After(walStreamPoll):
			}
		default:
			// ErrWALReset (a checkpoint folded the log) or a torn record:
			// end the stream cleanly at a frame boundary; the follower
			// reconnects from its applied sequence and either resumes or is
			// told to re-sync.
			_ = rc.Flush()
			return
		}
	}
}

// promoteHandler answers POST /v1/replication/promote: the failover hand-
// over. The replication engine stops, and every warm replica — session
// object, WAL, checkpoint sequence — moves into the serving registry; the
// role flips to primary and the withRole gate opens. The whole promote is
// a map handoff: no checkpoint restore, no WAL replay, which is what makes
// failover warm. Idempotent — repeat calls (a router retrying a lost
// response) answer 200 with nothing new promoted.
func (s *server) promoteHandler(w http.ResponseWriter, r *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.isFollower() {
		writeJSON(w, http.StatusOK, api.PromoteResponse{Role: s.currentRole(), Promoted: 0, Sessions: []string{}})
		return
	}
	promoted := s.replica.Promote()
	ids := make([]string, 0, len(promoted))
	for _, p := range promoted {
		ids = append(ids, p.Dir.ID())
	}
	// Server-minted ids on this node must not collide with ones the lost
	// primary handed out.
	s.adopt(promoted, ids)
	s.role.Store(rolePrimary)
	log.Printf("adawave-serve: promoted to primary (%d sessions warm)", len(ids))
	writeJSON(w, http.StatusOK, api.PromoteResponse{Role: rolePrimary, Promoted: len(ids), Sessions: ids})
}

// replicationStatus answers GET /v1/replication/status.
func (s *server) replicationStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.replicationOverview())
}

// replicationOverview renders the node's replication standing: on a
// follower, per-session applied/primary sequences and the lag between them;
// on a primary, each durable session's WAL position (the number a
// follower's lag is measured against).
func (s *server) replicationOverview() *api.ReplicationStatusResponse {
	role := s.currentRole()
	out := &api.ReplicationStatusResponse{
		Role: role, Primary: s.followerOf, Peers: s.peers,
		Sessions: map[string]api.ReplicationStatus{},
	}
	if role == roleFollower && s.replica != nil {
		out.Sessions = s.replica.Status()
		return out
	}
	if role == rolePrimary {
		for _, ss := range s.snapshotSessions() {
			if ss.files == nil {
				continue
			}
			seq := ss.files.WAL().Seq()
			out.Sessions[ss.id] = api.ReplicationStatus{Role: rolePrimary, AppliedSeq: seq, PrimarySeq: seq}
		}
	}
	return out
}

// replicaDetail serves GET /v1/sessions/{id} on a follower from the warm
// replica: the standard detail shape plus the replication block, whose lag
// is the promoted-staleness bound an operator watches.
func (s *server) replicaDetail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, tenant, ok := s.replica.Lookup(id)
	if !ok {
		writeCode(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	detail := api.SessionDetail{
		ID: id, Points: sess.Len(), Dim: sess.Dim(),
		Tenant: tenant, Resident: true, ResidentBytes: sess.ResidentBytes(),
		Durable: true, Embedding: embeddingDTO(sess.Config().Embedding),
	}
	if detail.Points > 0 {
		// The replica applier is the session's one writer; this read is
		// concurrent with it the same way label reads are on a primary.
		cells, err := sess.CellsContext(r.Context())
		if err != nil {
			s.writeReadErr(w, r, err)
			return
		}
		detail.Cells = cells
	}
	if st, ok := s.replica.Status()[id]; ok {
		detail.Replication = &st
	}
	writeJSON(w, http.StatusOK, detail)
}
