package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// ridKey keys the request id in the request context.
type ridKey struct{}

// bootID distinguishes this process's generated request ids across restarts.
var bootID = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var reqCounter atomic.Uint64

// requestIDMiddleware propagates X-Request-Id: an id supplied by the client
// (or an upstream proxy) is honored, otherwise one is generated, and either
// way it is echoed on the response and attached to the request context so
// log lines about this request are correlatable across hops.
func requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("%s-%d", bootID, reqCounter.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ridKey{}, id)))
	})
}

// requestIDFrom returns the propagated request id, or "-" outside the
// middleware (tests hitting handlers directly).
func requestIDFrom(ctx context.Context) string {
	if id, ok := ctx.Value(ridKey{}).(string); ok {
		return id
	}
	return "-"
}

// withDeadline bounds every request by the -timeout request-scoped deadline
// via the request context — the ctx-aware pipeline aborts compute at the
// next shard boundary, frees the worker, and the handler answers 504
// (deadline_exceeded). This replaces http.TimeoutHandler, which buffered
// whole responses (breaking NDJSON streaming) and left the abandoned
// handler burning CPU after its 503.
func (s *server) withDeadline(next http.Handler) http.Handler {
	if s.timeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Replication streams are long-lived by design (a follower tails
		// the WAL for the life of the connection); the request deadline
		// would sever them every -timeout and force pointless reconnects.
		if strings.HasPrefix(r.URL.Path, "/v1/replication/") {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// bodyCap caps every request body so one oversized POST cannot exhaust
// memory; a breach surfaces as a MaxBytesError on the handler's read path
// and is classified 413 too_large.
func (s *server) bodyCap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		next.ServeHTTP(w, r)
	})
}
