// Package api is the versioned wire contract of the adawave HTTP surface:
// the typed request/response DTOs, the structured error envelope and the
// error-code vocabulary shared by cmd/adawave-serve (which renders them) and
// the adawave/client package (which consumes them). Keeping both sides on
// one set of types makes a silent server/client drift a compile error
// instead of a production incident.
//
// Label arrays, the bulk of every served read, are written and read by the
// append codec in labels.go (AppendResult, AppendLabelsChunk,
// AppendMultiResolution, DecodeResult, DecodeLabelsChunk) on both sides of
// the wire instead of by encoding/json. Its output is pinned byte for byte
// to encoding/json's, so the codec changes no response; its decoders give
// encoding/json's values on any input, falling back to encoding/json for
// every shape the server does not write.
//
// The wire surface is versioned under /v1; the DTOs here describe v1.
// Compatible additions (new optional fields, new endpoints) extend these
// types in place; an incompatible change must fork a v2 package and mount it
// beside /v1, never mutate v1.
package api

import "adawave/internal/persist"

// Version is the wire-contract version these DTOs describe, as mounted in
// the URL space.
const Version = "v1"

// SessionConfig is the JSON body of POST /v1/sessions; every field is
// optional (pointer or zero value = keep the paper's parameter-free
// default).
type SessionConfig struct {
	Scale           *int     `json:"scale,omitempty"`
	Levels          *int     `json:"levels,omitempty"`
	Basis           string   `json:"basis,omitempty"`
	Connectivity    string   `json:"connectivity,omitempty"`
	CoeffEpsilon    *float64 `json:"coeffEpsilon,omitempty"`
	MinClusterCells *int     `json:"minClusterCells,omitempty"`
	MinClusterMass  *float64 `json:"minClusterMass,omitempty"`
	// Embedding installs a dimensionality-reduction front-end as the
	// session pipeline's first stage; omitted = no embedding.
	Embedding *EmbeddingSpec `json:"embedding,omitempty"`
}

// EmbeddingSpec is the wire form of an embedding front-end: Kind is "pca" or
// "rp", K the output dimensionality, Seed the random-projection seed (pca
// ignores it). The session fits the embedding once, on its first appended
// batch, and checkpoints the fitted parameters; restoring the session under
// a different spec fails with embedding_mismatch.
type EmbeddingSpec struct {
	Kind string `json:"kind"`
	K    int    `json:"k"`
	Seed int64  `json:"seed,omitempty"`
}

// CreateSessionResponse answers POST /v1/sessions. Tenant is the tenant the
// session is accounted under — the API key's tenant, or "default" for keyless
// requests.
type CreateSessionResponse struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
}

// SessionInfo is one row of GET /v1/sessions. Resident reports whether the
// session is live in memory (false: evicted to its checkpoint, rehydrated
// transparently on next touch).
type SessionInfo struct {
	ID       string `json:"id"`
	Points   int    `json:"points"`
	Dim      int    `json:"dim"`
	Tenant   string `json:"tenant,omitempty"`
	Resident bool   `json:"resident"`
}

// ListSessionsResponse answers GET /v1/sessions.
type ListSessionsResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// SessionDetail answers GET /v1/sessions/{id}: the session's shape plus its
// live-grid cell count (pending mutations folded first) and, when the server
// runs with -data-dir, its durability state.
type SessionDetail struct {
	ID     string `json:"id"`
	Points int    `json:"points"`
	Dim    int    `json:"dim"`
	Cells  int    `json:"cells"`
	// Durable reports whether the session is backed by a checkpoint + WAL
	// directory; LastCheckpointSeq is the WAL sequence the newest on-disk
	// checkpoint folds in (0 before the first checkpoint).
	Durable           bool   `json:"durable"`
	LastCheckpointSeq uint64 `json:"lastCheckpointSeq"`
	// Tenant is the tenant the session is accounted under; Resident reports
	// whether it is live in memory (a detail read rehydrates it, so Resident
	// is true in the response); ResidentBytes estimates its heap footprint.
	Tenant        string `json:"tenant,omitempty"`
	Resident      bool   `json:"resident"`
	ResidentBytes int64  `json:"residentBytes"`
	// Embedding echoes the session's embedding front-end; omitted when the
	// session runs without one.
	Embedding *EmbeddingSpec `json:"embedding,omitempty"`
	// Replication reports this node's replication standing for the session
	// (primary's WAL position, or a follower's applied position and lag);
	// omitted on a standalone node.
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

// AppendRequest is the JSON body of POST /v1/sessions/{id}/points (the
// text/csv body is the streaming alternative).
type AppendRequest struct {
	Points [][]float64 `json:"points"`
}

// AppendResponse answers POST /v1/sessions/{id}/points.
type AppendResponse struct {
	Appended int `json:"appended"`
	Points   int `json:"points"`
}

// RemoveRequest is the JSON body of DELETE /v1/sessions/{id}/points.
type RemoveRequest struct {
	Indices []int `json:"indices"`
}

// RemoveResponse answers DELETE /v1/sessions/{id}/points.
type RemoveResponse struct {
	Removed int `json:"removed"`
	Points  int `json:"points"`
}

// Result is the serialized form of one clustering result. Labels is omitted
// where the endpoint (or ?labels=false) returns diagnostics only.
type Result struct {
	Labels           []int   `json:"labels,omitempty"`
	NumClusters      int     `json:"numClusters"`
	Noise            int     `json:"noise"`
	Threshold        float64 `json:"threshold"`
	Levels           int     `json:"levels"`
	Scale            int     `json:"scale"`
	CellsQuantized   int     `json:"cellsQuantized"`
	CellsTransformed int     `json:"cellsTransformed"`
	CellsKept        int     `json:"cellsKept"`
}

// MultiResolutionResponse answers GET /v1/sessions/{id}/multiresolution.
type MultiResolutionResponse struct {
	Levels []Result `json:"levels"`
}

// CheckpointResponse answers POST /v1/sessions/{id}/checkpoint.
type CheckpointResponse struct {
	Seq    uint64 `json:"seq"`
	Points int    `json:"points"`
}

// QuotaLimits mirrors a tenant's configured quota; a zero field means
// unlimited.
type QuotaLimits struct {
	MaxPoints          int64   `json:"maxPoints"`
	MaxCells           int64   `json:"maxCells"`
	MaxConcurrentFolds int     `json:"maxConcurrentFolds"`
	MaxQPS             float64 `json:"maxQps"`
}

// TenantUsage answers GET /v1/tenants/{id}/usage: the tenant's standing
// against its quotas plus its session residency.
type TenantUsage struct {
	Tenant string `json:"tenant"`
	// Points and Cells are the tenant's totals across all its sessions
	// (cells as of each session's last fold).
	Points int64 `json:"points"`
	Cells  int64 `json:"cells"`
	// Sessions counts the tenant's sessions; ResidentSessions those live in
	// memory; ResidentBytes their estimated heap footprint.
	Sessions         int   `json:"sessions"`
	ResidentSessions int   `json:"residentSessions"`
	ResidentBytes    int64 `json:"residentBytes"`
	// Folds is the tenant's in-flight compute passes; QPS its observed
	// request rate over the sliding 10 s admission window.
	Folds int     `json:"folds"`
	QPS   float64 `json:"qps"`
	// Quota is the limits in force (zero = unlimited).
	Quota QuotaLimits `json:"quota"`
}

// HealthzResponse answers GET /healthz.
type HealthzResponse struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
}

// RouteMetrics is one route's counters in GET /v1/metrics: total requests,
// responses with a 5xx status, client-abort (499) responses, and latency
// aggregates in milliseconds.
type RouteMetrics struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	ClientAborts int64   `json:"clientAborts"`
	TotalMs      float64 `json:"totalMs"`
	MaxMs        float64 `json:"maxMs"`
}

// MetricsResponse answers GET /v1/metrics — expvar-style JSON counters, no
// external metrics dependency.
type MetricsResponse struct {
	UptimeSeconds float64                 `json:"uptimeSeconds"`
	Routes        map[string]RouteMetrics `json:"routes"`
	// Replication is present on nodes running with a cluster role: the
	// node's role and, per session, the replication standing (on a follower,
	// the observable lag).
	Replication *ReplicationStatusResponse `json:"replication,omitempty"`
}

// NDJSON label streaming (GET /v1/sessions/{id}/labels with
// Accept: application/x-ndjson): the response is one LabelsMeta line
// followed by ⌈points/chunk⌉ LabelsChunk lines in ascending offset order,
// each flushed as soon as it is encoded — a million-label session streams in
// constant server memory instead of buffering one giant JSON array.

// LabelsMeta is the first NDJSON line: the result diagnostics (Labels
// omitted), the total point count and the chunk size of the following lines.
type LabelsMeta struct {
	Meta struct {
		Result Result `json:"result"`
		Points int    `json:"points"`
		Chunk  int    `json:"chunk"`
	} `json:"meta"`
}

// LabelsChunk is one streamed slice of the label vector: Labels holds the
// labels of points [Offset, Offset+len(Labels)).
type LabelsChunk struct {
	Offset int   `json:"offset"`
	Labels []int `json:"labels"`
}

// Cluster mode (see internal/cluster): a primary exposes its sessions'
// checkpoints and WAL frames under /v1/replication/, a follower streams
// them into warm replicas, and the router promotes the follower when the
// primary dies. The DTOs below are that control plane's wire surface.

// Wire headers of the cluster surface.
const (
	// HeaderSessionID lets the router pin a new session's id on
	// POST /v1/sessions so placement (consistent hash of the id) is decided
	// before the session exists.
	HeaderSessionID = "X-Adawave-Session-Id"
	// HeaderCheckpointSeq carries the WAL sequence a streamed checkpoint
	// folds in (GET /v1/replication/sessions/{id}/checkpoint).
	HeaderCheckpointSeq = "X-Adawave-Checkpoint-Seq"
	// HeaderWALSeq carries the primary's last WAL sequence at the moment a
	// frame stream opens (GET /v1/replication/sessions/{id}/wal).
	HeaderWALSeq = "X-Adawave-Wal-Seq"
	// HeaderClusterSecret carries the shared cluster credential on
	// node-to-node traffic: every /v1/replication/ request (the feed hands
	// out full session data, and promote mutates the cluster topology) must
	// present the -cluster-secret the receiving node was started with.
	HeaderClusterSecret = "X-Adawave-Cluster-Secret"
)

// ReplicationStatus is one session's replication standing on one node. On a
// primary, AppliedSeq and PrimarySeq are both the session's WAL position;
// on a follower, AppliedSeq is the last sequence applied locally,
// PrimarySeq the last position learned from the primary, and Lag their
// difference.
type ReplicationStatus struct {
	Role       string `json:"role"` // "primary" or "follower"
	Primary    string `json:"primary,omitempty"`
	AppliedSeq uint64 `json:"appliedSeq"`
	PrimarySeq uint64 `json:"primarySeq"`
	Lag        uint64 `json:"lag"`
	Connected  bool   `json:"connected"`
	LastError  string `json:"lastError,omitempty"`
}

// ReplicationSessionInfo is one row of GET /v1/replication/sessions — what a
// follower needs to provision a replica: the identity, the exact
// configuration fingerprint (round-tripped through the same canonical
// renderer as config.json), and the primary's durable positions.
type ReplicationSessionInfo struct {
	ID            string             `json:"id"`
	Tenant        string             `json:"tenant,omitempty"`
	Config        persist.ConfigMeta `json:"config"`
	CheckpointSeq uint64             `json:"checkpointSeq"`
	WALSeq        uint64             `json:"walSeq"`
	Points        int                `json:"points"`
	Dim           int                `json:"dim"`
}

// ReplicationSessionsResponse answers GET /v1/replication/sessions.
// Version identifies the listed set of sessions: it moves whenever a
// session is created, deleted or adopted (0: the primary does not version
// its list).
type ReplicationSessionsResponse struct {
	Role     string                   `json:"role"`
	Version  uint64                   `json:"version,omitempty"`
	Sessions []ReplicationSessionInfo `json:"sessions"`
}

// Query parameters of GET /v1/replication/sessions. A follower that names
// the list version it holds (QueryListVersion) with a wait (QueryListWait,
// a Go duration such as "1s") is answered when the version moves, or once
// the wait is over; a request without a version is answered at once.
const (
	QueryListVersion = "version"
	QueryListWait    = "wait"
)

// ReplicationStatusResponse answers GET /v1/replication/status and is
// embedded in /v1/metrics: the node's role, the primary it follows (if
// any), its configured peers, and the per-session standing.
type ReplicationStatusResponse struct {
	Role     string                       `json:"role"`
	Primary  string                       `json:"primary,omitempty"`
	Peers    []string                     `json:"peers,omitempty"`
	Sessions map[string]ReplicationStatus `json:"sessions,omitempty"`
}

// PromoteResponse answers POST /v1/replication/promote: the follower
// adopted its warm replicas into the serving registry and now answers as a
// primary.
type PromoteResponse struct {
	Role     string   `json:"role"`
	Promoted int      `json:"promoted"`
	Sessions []string `json:"sessions,omitempty"`
}

// ShardStatus is one shard's standing in the router's GET /v1/cluster/status:
// the configured pair, the node currently serving the shard's traffic, and
// the state machine position ("healthy", "failover" while promotion is in
// flight — traffic answers 503 + Retry-After — or "promoted").
type ShardStatus struct {
	Primary  string `json:"primary"`
	Follower string `json:"follower"`
	Active   string `json:"active"`
	State    string `json:"state"`
}

// RouterStatusResponse answers the router's GET /v1/cluster/status.
type RouterStatusResponse struct {
	Shards []ShardStatus `json:"shards"`
}
