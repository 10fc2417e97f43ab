package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adawave/internal/persist"
	"adawave/internal/sched"
)

// splitPeers parses the informational -peers list.
func splitPeers(spec string) []string {
	var out []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

func main() {
	var (
		addr            = flag.String("addr", ":8321", "listen address")
		workers         = flag.Int("workers", 0, "worker goroutines per pipeline stage (0 = all processors)")
		timeout         = flag.Duration("timeout", 30*time.Second, "request-scoped deadline for every endpoint")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for draining in-flight requests on SIGINT/SIGTERM")
		csvBatch        = flag.Int("csv-batch", 8192, "rows per chunk when ingesting text/csv bodies")
		maxBody         = flag.Int64("max-body-bytes", 256<<20, "largest accepted request body")
		maxSessions     = flag.Int("max-sessions", 64, "most concurrent sessions")
		maxPoints       = flag.Int("max-points", 10_000_000, "most points per session")
		dataDir         = flag.String("data-dir", "", "directory for durable session state (checkpoints + write-ahead logs); empty disables persistence")
		walSync         = flag.String("wal-sync", "always", "WAL fsync policy: always (durable before the response), interval (periodic), never (OS-scheduled)")
		walSyncInterval = flag.Duration("wal-sync-interval", time.Second, "fsync period under -wal-sync=interval")
		ckptInterval    = flag.Duration("checkpoint-interval", time.Minute, "how often the background checkpointer folds grown WALs into checkpoints (0 disables)")
		tenants         = flag.String("tenants", "", "API-key → tenant map as comma-separated key=tenant pairs; empty serves every request under the default tenant")
		quotaPoints     = flag.Int64("quota-points", 0, "per-tenant cap on total points across sessions (0 = unlimited)")
		quotaCells      = flag.Int64("quota-cells", 0, "per-tenant cap on total occupied grid cells across sessions (0 = unlimited)")
		quotaFolds      = flag.Int("quota-folds", 0, "per-tenant cap on concurrent compute passes (0 = unlimited)")
		quotaQPS        = flag.Float64("quota-qps", 0, "per-tenant request-rate cap over a sliding 10s window (0 = unlimited)")
		maxResident     = flag.Int("max-resident-sessions", 0, "most sessions resident in memory; colder ones evict to their checkpoints (0 = unbounded, requires -data-dir)")
		maxResidentByte = flag.Int64("max-resident-bytes", 0, "resident-memory budget across sessions in bytes (0 = unbounded, requires -data-dir)")
		role            = flag.String("role", "standalone", "cluster role: standalone, primary (serves the replication feed; requires -data-dir) or follower (replicates -follower-of until promoted; requires -data-dir)")
		followerOf      = flag.String("follower-of", "", "base URL of the primary to replicate (required with -role=follower)")
		peers           = flag.String("peers", "", "comma-separated base URLs of the other cluster nodes (informational; reported in replication status)")
		clusterSecret   = flag.String("cluster-secret", "", "shared secret required on every /v1/replication/ request and sent on replication feed calls; empty leaves the endpoints open (single-trust-domain deployments only)")
	)
	flag.Parse()

	policy, err := persist.ParseSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adawave-serve: %v\n", err)
		os.Exit(2)
	}
	tenantMap, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adawave-serve: %v\n", err)
		os.Exit(2)
	}
	srv, err := newServer(serverOptions{
		workers:         *workers,
		timeout:         *timeout,
		csvBatch:        *csvBatch,
		maxBody:         *maxBody,
		maxSessions:     *maxSessions,
		maxPoints:       *maxPoints,
		dataDir:         *dataDir,
		walSync:         policy,
		walSyncInterval: *walSyncInterval,
		ckptInterval:    *ckptInterval,
		tenants:         tenantMap,
		quota: sched.Quota{
			MaxPoints:          *quotaPoints,
			MaxCells:           *quotaCells,
			MaxConcurrentFolds: *quotaFolds,
			MaxQPS:             *quotaQPS,
		},
		maxResident:      *maxResident,
		maxResidentBytes: *maxResidentByte,
		role:             *role,
		followerOf:       strings.TrimRight(*followerOf, "/"),
		peers:            splitPeers(*peers),
		clusterSecret:    *clusterSecret,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "adawave-serve: %v\n", err)
		os.Exit(1)
	}
	hs := httpServer(*addr, srv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	switch {
	case *role == "follower":
		log.Printf("adawave-serve listening on %s (role follower of %s, data dir %s, wal sync %s)", *addr, *followerOf, *dataDir, policy)
	case *dataDir != "":
		log.Printf("adawave-serve listening on %s (role %s, request timeout %s, data dir %s, wal sync %s)", *addr, *role, *timeout, *dataDir, policy)
	default:
		log.Printf("adawave-serve listening on %s (request timeout %s)", *addr, *timeout)
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			fmt.Fprintf(os.Stderr, "adawave-serve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("adawave-serve: draining (up to %s)", *shutdownTimeout)
		drain(hs, *shutdownTimeout)
	}
	// Flush and close the WALs after the last in-flight mutation drained.
	srv.Close()
}

// httpServer is the HTTP server in front of srv. Its graceful shutdown
// begins srv's drain, which ends the long-lived replication handlers (a WAL
// stream to an attached follower, a follower's waiting session list) that
// would otherwise hold their connections active for the whole grace period.
func httpServer(addr string, srv *server) *http.Server {
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	hs.RegisterOnShutdown(srv.beginDrain)
	return hs
}

// drain shuts hs down gracefully, waiting at most timeout for in-flight
// requests, and closes the remaining connections by force after that. It
// returns Shutdown's error: nil when every handler returned in time.
func drain(hs *http.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := hs.Shutdown(ctx)
	if err != nil {
		log.Printf("adawave-serve: forced close: %v", err)
		hs.Close()
	}
	return err
}
