// Package adawave implements AdaWave, the adaptive wavelet clustering
// algorithm for highly noisy data (Chen, Liu, Deng, He, Hopcroft —
// “Adaptive Wavelet Clustering for Highly Noisy Data”, ICDE 2019).
//
// AdaWave finds arbitrarily shaped clusters in datasets where most points
// are noise (the paper evaluates up to 90 % noise). It quantizes the
// feature space into a sparse grid (“grid labeling”: only occupied cells
// are stored, so memory stays proportional to the data, not to the grid
// volume), applies a separable discrete wavelet transform that keeps the
// smooth scale-space subband, picks a noise threshold adaptively from the
// sorted cell-density curve (the “elbow” construction of the paper's
// Algorithm 4), labels connected components of the surviving cells, and
// maps every input point back through a lookup table.
//
// Every engine runs the same ordered list of composable stages:
//
//	embed? ──▶ quantize ──▶ transform ──▶ threshold ──▶ connect ──▶ assign
//
// embed (optional) projects rows through a fitted linear embedding,
// quantize turns rows into the sparse grid, transform smooths cell masses
// with the wavelet, threshold picks the adaptive elbow cut, connect labels
// cell components, and assign maps points back to labels. All stages after
// embed are oblivious to whether the rows they consume are raw or
// projected — see the Embeddings section.
//
// The algorithm is deterministic, runs in O(n·d + m log m) for n points
// and m occupied cells, is insensitive to input order and to cluster
// shape, and needs no parameter tuning for typical workloads:
//
//	ds, err := adawave.FromSlices(points) // or NewDataset + AppendRow
//	c, err := adawave.New()
//	res, err := c.ClusterDatasetContext(ctx, ds)
//	if err != nil { ... }
//	for i, label := range res.Labels {
//		// label == adawave.Noise or 0 … res.NumClusters-1
//	}
//
// Each operation has one call: it takes a context.Context first and a
// flat *Dataset. Two point-facing engines share the pipeline, and both
// match the sequential map-based reference (internal/oracle, test-only)
// label for label.
// Clusterer is the parallel, allocation-lean engine for one-shot requests:
// stages run sharded across workers over a flat struct-of-arrays grid,
// scratch buffers are pooled, and each point's grid cell is memoized
// during quantization. Session is the streaming engine for long-lived
// workloads: AppendContext and RemoveContext mutate a live grid
// incrementally — a delta batch quantizes alone and merges in by cell id,
// a removed point subtracts its mass in place — and mark the session
// dirty; the next read lazily re-runs only the grid-side stages, then
// caches until the next mutation (MultiResolutionContext reads the same
// live grid but recomputes per call). The streamed result is guaranteed
// bit-identical to the one-shot run over the same points. cmd/adawave-serve exposes sessions over versioned HTTP JSON
// (POST /v1/sessions → POST point batches, JSON or chunked CSV → GET
// labels — JSON, or a chunked NDJSON stream under Accept:
// application/x-ndjson — and multi-resolution results → DELETE), with
// request-scoped deadlines, per-route metrics and graceful shutdown; the
// adawave/client package is its typed Go client.
//
// # Construction and options
//
// New builds a Clusterer from functional options layered over
// DefaultConfig: WithWorkers, WithBasis, WithScale, WithLevels,
// WithThreshold, WithConnectivity, WithCoeffEpsilon, WithMinClusterCells,
// WithMinClusterMass, WithEmbedding, and WithConfig for
// callers holding an explicit Config. Zero options reproduce the paper's
// parameter-free defaults. The same option set configures streaming
// sessions through Clusterer.NewSession and Clusterer.RestoreSession,
// which share the clusterer's engine and pooled buffers.
//
// # Embeddings
//
// WithEmbedding prepends the embed stage: rows are projected into k
// dimensions by a fitted linear embedder before quantization, and every
// later stage — grid, transform, threshold, assignment, streaming, the
// out-of-core path — runs in the projected space unchanged. Two embedders
// are built in. PCA(k) fits principal components over the package's Jacobi
// eigensolver: deterministic, data-aware, the right default when the
// signal lives on a low-dimensional subspace (cluster the d=64
// HighDimMixture under PCA(4), or an ImageSegmentation feature table under
// PCA(2)). RandomProjection(k, seed) draws a seeded sparse Achlioptas
// matrix: data-independent and O(d·k) to fit, at the price of
// Johnson–Lindenstrauss distortion — prefer it when fitting must not look
// at the data (streams whose first batch is unrepresentative) or d is too
// large to covary. Clustering with an embedding is bit-identical to
// fitting the same embedder yourself, projecting the rows, and clustering
// the projection without one.
//
// A streaming Session fits its embedder exactly once, on the first
// appended batch, and never refits — so labels stay comparable across the
// session's lifetime and a session replayed from its durability log
// refits identically. Checkpoints carry the fitted parameters: restore
// rehydrates the projection without refitting, and restoring under a
// different embedding spec fails with ErrEmbeddingMismatch (a refinement
// of ErrConfigMismatch). Over HTTP, the /v1 session-create body takes an
// optional embedding spec, echoed back in the session detail and guarded
// by the embedding_mismatch wire code.
//
// # Context semantics
//
// Every compute entry point takes a context — ClusterDatasetContext,
// ClusterMultiResolutionDatasetContext and ClusterDatasetExternalOptions
// on Clusterer; AppendContext, RemoveContext, LabelsContext, ResultContext,
// MultiResolutionContext, CellsContext and CheckpointContext on Session.
// The pipeline polls
// ctx.Err() at every shard boundary (quantization shards, transform slab
// shards, the incremental merge, connected components, assignment), so a
// cancelled or deadline-expired context aborts in-flight compute within
// microseconds of work, not after it. A cancelled call unwinds cleanly:
// pooled buffers are returned, a session's live grid is left untouched,
// pending mutations stay pending, and the next read
// recomputes a result bit-identical to a never-cancelled run. Mutations
// (AppendContext, RemoveContext) refuse to apply once their context is
// dead, so an aborted client request never half-commits.
//
// # Error taxonomy
//
// Failures classify under the exported roots — ErrInvalidInput,
// ErrNoPoints, ErrConfigMismatch, ErrCanceled, ErrDeadlineExceeded —
// matched with errors.Is (see errors.go for the full contract); ragged
// rows handed to FromSlices are ErrInvalidInput too.
// ErrCanceled and ErrDeadlineExceeded wrap the originating context error,
// and the serving layer maps the taxonomy onto stable wire codes
// (internal/api): a client disconnect logs as a 499 client abort, never a
// 5xx; an expired request deadline answers 504.
//
// Sessions are durable. Session.CheckpointContext serializes the full
// session state — configuration fingerprint, point rows, memoized cell
// ids, quantizer frame and live grid — to a versioned, CRC-32C-framed
// binary stream (internal/persist), and Clusterer.RestoreSession rebuilds
// a warm session from it without requantizing a point: the restored
// session reproduces the original's labels bit for bit and keeps
// streaming. A checkpoint is
// valid at any moment in an append/remove sequence (pending mutations are
// folded first, and removal tombstones are swept on write), and a
// checkpoint taken under one configuration refuses to restore under
// another. adawave-serve builds log-structured crash recovery on top: with
// -data-dir every acknowledged mutation is journaled to a per-session
// write-ahead log (fsync policy selectable via -wal-sync: always /
// interval / never), a background checkpointer (and the admin endpoint
// POST /v1/sessions/{id}/checkpoint) folds grown logs into fresh checkpoints
// and truncates them, and a restarted process recovers each session from
// its newest checkpoint plus the WAL tail, discarding a torn trailing
// record. Because grid masses are additive, each replayed batch re-merges
// in O(cells); recovery at any crash point is bit-identical to the
// never-crashed session.
//
// # Scheduling and multi-tenant governance
//
// adawave-serve runs every session's fan-out stages on one process-wide
// worker pool with a deficit-round-robin fair scheduler (internal/sched):
// the serving layer attaches the pool and the request's tenant to the
// request context, and every sharded stage of the engine draws its shards
// from the tenant's queue instead of spawning goroutines per request. The
// scheduler serves tenants round-robin with per-tenant deficit counters,
// so a tenant flooding the server delays the others by at most a bounded
// factor — never proportionally to the flood — and the submitting
// goroutine assists in running its own shards, so a saturated (or closed)
// pool can never deadlock a request. Shard boundaries are identical to the
// pool-free path, so labels never depend on who else is running.
//
// Tenants are resolved from API keys (-tenants key=tenant,…; keyless
// requests run under the "default" tenant) and governed by per-tenant
// quotas enforced at admission: total points and occupied grid cells
// across sessions, concurrent compute passes, and request rate over a
// sliding window (-quota-points, -quota-cells, -quota-folds, -quota-qps).
// An over-quota request executes nothing and answers 429 with a
// Retry-After header and a machine-readable resource_exhausted envelope;
// the taxonomy root ErrResourceExhausted matches it with errors.Is, and
// the typed client configured with client.WithRetry transparently backs
// off and resends. GET /v1/tenants/{id}/usage reports a tenant's standing.
// With -max-resident-sessions / -max-resident-bytes the server also bounds
// resident memory: least-recently-touched idle sessions are evicted to
// their checkpoints (WAL folded and truncated first, so the checkpoint
// alone is the complete state) and transparently rehydrated on the next
// touch, bit-identically, while Session.ResidentBytes reports the live
// footprint the budget is measured against.
//
// # Grid memory layout
//
// The grids that stay resident across a workload's lifetime — a Session's
// live base grid and the external pipeline's merged output — are always
// block-compressed: cells group into blocks of up to 4096,
// each storing frame-of-reference delta-coded, bit-packed coordinates and
// bit-packed integer masses (pre-transform masses are point counts;
// promotion to float64 happens only at the wavelet boundary). That cuts
// resident bytes per occupied cell several-fold versus the flat
// struct-of-arrays layout — about 12 B/cell down to 2.2 on the paper's
// running example — and the external sort's spill runs and checkpoint grid
// snapshots are the same AWG2 block stream on disk. The packed form is
// storage only: each clustering pass unpacks its base once and every stage
// computes on that flat copy, so the flat layout lives only as per-pass
// scratch (the one-shot in-RAM quantization and that unpacking);
// checkpoints whose grid was written in the retired flat snapshot format
// still restore.
//
// # Out-of-core clustering
//
// For datasets larger than memory, ClusterDatasetExternalOptions runs
// under a resident-memory budget (ExternalOptions.MaxResidentBytes; zero
// selects 512 MiB): OpenMappedDataset mmaps a header-plus-row-major
// dataset file into a zero-copy read-only Dataset whose coordinates never
// enter the Go heap (CreateMappedDataset streams one in with O(1)
// memory; a torn file fails validation with ErrCorruptDataset), and
// ClusterDatasetExternalOptions streams quantization through a
// spill-to-disk external sort — chunks quantized by the in-RAM shard
// kernel (a dense count when a shard holds at least Scaleᵈ rows, a radix
// sort otherwise), sorted runs on temp files, the same loser-tree cell
// merge that combines in-RAM shards and folds Session deltas — then
// re-enter the shared
// pipeline over cell-id-sharded connected components. The budget derives
// chunk size, spill threshold and merge fan-in (the other ExternalOptions
// fields pin any of them per call); temp files are removed on every exit
// path, including cancellation. The Result is bit-identical to
// ClusterDatasetContext on the same rows, a property tested across random chunk/spill budgets.
//
// # Cluster mode
//
// For availability beyond one process, cmd/adawave-serve takes a -role
// flag: a primary exposes its sessions' write-ahead logs as a streaming
// replication feed, and a follower (-follower-of) seeds each session
// from a checkpoint snapshot, tails the CRC-framed WAL records over
// long-lived HTTP, journals them to its own data-dir and applies them to
// warm in-memory sessions, reporting applied sequence and lag. The thin
// cmd/adawave-router binary places sessions on a consistent-hash ring
// over static primary=follower shard pairs, proxies /v1 traffic to each
// session's active node, probes liveness, and on primary death answers
// 503 + Retry-After (absorbed by the client's WithRetry for idempotent
// requests) while promoting the follower — a role flip over already-live
// sessions, so failover cost is the first label read, not a replay. The
// promoted node's labels are bit-identical to the lost primary's; the
// internal/cluster package holds the ring, failure detector and
// replication engine. A shared -cluster-secret gates the replication
// endpoints (followers and routers send it automatically), a feed whose
// sequence regresses below the follower's applied point triggers a full
// checkpoint re-sync instead of splicing divergent histories, and
// replicas dropped because the primary no longer lists them are
// quarantined on disk rather than deleted.
//
// The package also exposes the substrate the paper builds on (wavelet
// bases, threshold strategies, multi-resolution clustering), the
// evaluation metric the paper uses (adjusted mutual information), and the
// paper's synthetic benchmark generators, so that every figure and table
// of the evaluation can be reproduced — see the bench_test.go harness,
// cmd/experiments, and EXPERIMENTS.md.
package adawave
