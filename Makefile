# Local targets mirroring the CI jobs (.github/workflows/ci.yml) so local
# and CI runs stay in lockstep.

GO ?= go

# The perf suite behind `make bench-json`: the sequential/engine/Dataset
# renderings of the Fig. 2 and Fig. 9 workloads, the multi-resolution pass,
# noise assignment, the streaming workloads (warm Session append+relabel
# vs. cold recluster, incremental merge throughput), the durability
# workloads (per-mutation WAL-append overhead under both fsync policies,
# cold crash recovery of a 50k-point session from checkpoint + WAL tail),
# the ctx-check overhead probe (Fig. 2 through the cancellable
# ClusterDatasetContext; acceptance ≤2 % over the ctx-free path), and the
# governance workloads (DRR scheduler fairness solo vs contended, the
# 50k-point session evict→rehydrate round trip), and the cluster workloads
# (WAL frame replication throughput through a live Tailer into a
# follower-side session + journal, and the 50k-point warm-failover handoff),
# and the engine's quantize stage on each side of the dense/radix kernel
# choice (2M 2-D points at scale 128; 400k 4-D points at scale 64), in
# rows/s, each with a /scan series timing the bounding-box scan alone,
# the transform stage alone (one CDF(2,2) level of the Fig. 2 and
# highdim-embed base grids at 1 and GOMAXPROCS workers, in input cells/s),
# and the connect stage alone (the Fig. 2 and highdim-embed kept grids under
# both connectivities), and the embed stage (the PCA front-end overhead on
# Fig. 2, the PCA-vs-random-projection pair on the d=64 mixture, and the
# row-sharded projection alone at the highdim-embed shape: 400k×64 rows
# through a fitted PCA(4), in rows/s), and the served label codec (one
# 50k-label /labels body encoded and decoded, in labels/s).
# BENCHTIME is overridable for quicker local runs.
BENCH_PERF = Fig2RunningExample|EmbedFig2|EmbedHighDim|FlatTransform|Fig9Roadmap|MultiResolution|AssignNoiseToNearest|SessionAppendRelabel|ColdRecluster50k|MergeThroughput|WALAppend|ColdRecovery50k|CtxOverheadFig2|SchedulerFairness|EvictRehydrate50k|GridFootprint|WALReplicationThroughput|Failover50k|QuantizeDataset|Components|LabelsWire
BENCHTIME ?= 100x

# The committed perf-trajectory snapshot this PR writes (BENCH_$(BENCH_N).json)
# and the previous one benchcheck gates against. Bump BENCH_N once per PR
# that refreshes the snapshot instead of editing each filename below.
BENCH_N ?= 10
BENCH_PREV = $(shell expr $(BENCH_N) - 1)

# The end-to-end benchmark declared in BENCHMARK.json (see
# perfbench/README.md): one workload, one seed, one mode per run, e.g.
#   make perfbench WORKLOAD=external-spill SEED=7919 SECONDS=5 TRACE=1
WORKLOAD ?= batch-noisy-2d
SEED ?= 1
SECONDS ?= 20
TRACE ?= 0

.PHONY: build test race fuzz bench bench-json bench-scale profile perfbench fmt-check vet ci

# The build also fails if a command or the library links internal/oracle,
# the test-only sequential reference.
build:
	$(GO) build ./...
	@if $(GO) list -deps ./cmd/... . | grep -qx adawave/internal/oracle; then \
		echo "adawave/internal/oracle is test-only, but a command or the library depends on it" >&2; exit 1; \
	fi

# perfbench is its own module, outside the root ./... pattern.
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race-exercise the parallel engine: grid substrate, core pipeline, the
# shared worker pool + quota governor, the persistence layer, the embedding
# front-end (internal/embed's row-sharded projection and covariance,
# internal/linalg), the facade, and
# the HTTP serving layer (whose httptest smoke drives one writer and many
# concurrent readers through a shared Session, whose crash-recovery
# property test replays every WAL crash point, and whose evict→rehydrate
# property test hammers two sessions ping-ponging through the residency
# budget under concurrent readers, and whose kill-and-promote property test
# replicates random mutation splits to a follower and promotes it against a
# killed primary). The replication wake-up and drain tests then run 20
# times each, so a lost wake-up fails the target instead of flaking rarely.
WAKEUP_TESTS = TestWALChangedWakes|TestWALTailerNeverStalls|TestTailerResume|TestReplicaSetLearnsWithoutPolling|TestDrainEndsReplicationHandlers|TestSessionListWaitsForChange|TestCheckpointKeepsStream
race:
	$(GO) test -race ./internal/grid/... ./internal/core/... ./internal/pointset/... ./internal/sched/... ./internal/persist/... ./internal/embed/... ./internal/linalg/... ./internal/cluster/... ./cmd/adawave-serve/... .
	$(GO) test -race -count=20 -run '^($(WAKEUP_TESTS))$$' ./internal/persist ./internal/cluster ./cmd/adawave-serve

# The CI fuzz smoke job: a short run of each decoder's fuzz target — the
# grid snapshot and spill-run readers, the WAL frame decoders the
# replication stream uses, crash recovery over a whole WAL file, the
# session checkpoint reader,
# the mapped-dataset (AWDSET02/AWDSET01) header check, clustering over
# a mapped file's recorded bounds against a clone of its rows, the CSV batch reader
# behind the served text/csv append, the fitted-embedder (AWE1) decoder
# a checkpoint's embedder section goes through, the label codec's
# /labels body and NDJSON chunk decoders, each checked against encoding/json,
# the served session-create body decoder, whose accepted configs
# adawave.New must accept, and the served session-remove body decoder,
# whose accepted index lists a session removes or refuses as invalid input
# (go test takes one -fuzz target per invocation).
# FUZZTIME is overridable.
FUZZTIME ?= 15s
fuzz:
	$(GO) test ./internal/grid -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/grid -run '^$$' -fuzz '^FuzzReadSpillRun$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzParseFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzReadSessionCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pointset -run '^$$' -fuzz '^FuzzOpenMapped$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/grid -run '^$$' -fuzz '^FuzzClusterMapped$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataio -run '^$$' -fuzz '^FuzzBatchReader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/embed -run '^$$' -fuzz '^FuzzUnmarshalEmbedder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzDecodeLabelsChunk$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/adawave-serve -run '^$$' -fuzz '^FuzzCreateSessionBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/adawave-serve -run '^$$' -fuzz '^FuzzRemoveBody$$' -fuzztime $(FUZZTIME)

# The CI benchmark smoke job: one iteration of the Fig. 2 benchmarks.
bench:
	$(GO) test -bench=Fig2 -benchtime=1x -run '^$$' .

# The perf suite with allocation stats as test2json lines, committed as
# BENCH_$(BENCH_N).json so the repo records its own performance trajectory;
# CI also uploads it as an artifact next to the Fig. 2 bench smoke. (The
# earlier BENCH_*.json files are the committed PR-by-PR snapshots, kept for
# the trajectory.) After the run, benchcheck diffs the fresh numbers against
# the previous committed snapshot — ns/op, B/op and allocs/op alike — and
# fails loudly when any series present in both regressed beyond 2× — a perf
# or memory cliff is a red build, not a silent drift. Benchmarks new in this
# snapshot are listed but not gated until the next PR gives them a baseline.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PERF)' -benchmem -benchtime $(BENCHTIME) -json . > BENCH_$(BENCH_N).json
	$(GO) run ./cmd/benchcheck -old BENCH_$(BENCH_PREV).json -new BENCH_$(BENCH_N).json -factor 2

# The scale axis: 10 million points clustered out-of-core under a tight
# resident budget (with an in-bench ReadMemStats assertion that the budget
# held), appended to BENCH_$(BENCH_N).json so the scale numbers ride the
# same committed trajectory. One iteration — the workload takes minutes,
# and the gate is completion-within-budget, not variance-free timing.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkExternal10M' -benchtime 1x -timeout 30m -json . >> BENCH_$(BENCH_N).json

# CPU + heap profiles of the Fig. 2 engine benchmark, for chasing where the
# pipeline actually spends its time and bytes; CI uploads both pprof files
# as an artifact next to the bench smoke.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineDatasetFig2RunningExample' -benchtime $(BENCHTIME) \
		-cpuprofile cpu.pprof -memprofile mem.pprof .

perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: build vet fmt-check test race fuzz bench bench-json
