package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/persist"
)

func primaryOptions(t *testing.T) serverOptions {
	return serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: rolePrimary,
	}
}

// TestDrainEndsReplicationHandlers: a primary's graceful shutdown ends the
// replication feed's long-lived handlers — a WAL stream to an attached
// follower and a session-list request waiting for the list to change — so
// it completes well inside the shutdown timeout, with no forced close, and
// the stream ends cleanly at a frame boundary.
func TestDrainEndsReplicationHandlers(t *testing.T) {
	srv := mustServer(t, primaryOptions(t))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := httpServer(l.Addr().String(), srv)
	var active atomic.Int64
	hs.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateActive {
			active.Add(1)
		}
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	base := "http://" + l.Addr().String()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := hc.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return resp
	}

	var created api.CreateSessionResponse
	resp, err := hc.Post(base+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	resp, err = hc.Post(base+"/v1/sessions/"+created.ID+"/points", "application/json",
		strings.NewReader(`{"points":[[1,2],[3,4]]}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %v %v", resp, err)
	}
	resp.Body.Close()

	stream := get("/v1/replication/sessions/" + created.ID + "/wal?from=0")
	defer stream.Body.Close()
	br := bufio.NewReader(stream.Body)
	if _, seq, err := persist.ReadFrame(br); err != nil || seq != 1 {
		t.Fatalf("first streamed frame: seq %d, %v", seq, err)
	}
	var list api.ReplicationSessionsResponse
	resp = get("/v1/replication/sessions")
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list.Version == 0 {
		t.Fatal("the session list carries no version")
	}
	listed := make(chan error, 1)
	before := active.Load()
	go func() {
		resp, err := hc.Get(fmt.Sprintf("%s/v1/replication/sessions?%s=%d&%s=1h", base, api.QueryListVersion, list.Version, api.QueryListWait))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("waiting list: %s", resp.Status)
			}
		}
		listed <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); active.Load() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiting list request never reached the server")
		}
	}
	select {
	case err := <-listed:
		t.Fatalf("list request with the current version answered before any change: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	start := time.Now()
	if err := drain(hs, 10*time.Second); err != nil {
		t.Fatalf("drain: %v (forced close)", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("drain took %v with a stream and a waiting list attached", took)
	}
	if err := <-listed; err != nil {
		t.Fatal(err)
	}
	if _, _, err := persist.ReadFrame(br); err != io.EOF {
		t.Fatalf("stream after drain: %v, want a clean end", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatal(err)
	}
}

// TestSessionListWaitsForChange: a list request naming the current version
// is answered when a session is created or deleted, with a new version; a
// stale version, or no version at all, is answered at once.
func TestSessionListWaitsForChange(t *testing.T) {
	srv := mustServer(t, primaryOptions(t))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var list api.ReplicationSessionsResponse
	doJSON(t, ts, "GET", "/v1/replication/sessions", "", nil, http.StatusOK, &list)
	v0 := list.Version

	waitList := func(held uint64, change func()) api.ReplicationSessionsResponse {
		t.Helper()
		got := make(chan api.ReplicationSessionsResponse, 1)
		go func() {
			var out api.ReplicationSessionsResponse
			resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/replication/sessions?%s=%d&%s=1h", ts.URL, api.QueryListVersion, held, api.QueryListWait))
			if err == nil {
				json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
			}
			got <- out
		}()
		select {
		case out := <-got:
			t.Fatalf("answered before the change: %+v", out)
		case <-time.After(100 * time.Millisecond):
		}
		change()
		select {
		case out := <-got:
			return out
		case <-time.After(10 * time.Second):
			t.Fatal("not answered after the change")
		}
		return api.ReplicationSessionsResponse{}
	}

	var created api.CreateSessionResponse
	list = waitList(v0, func() {
		doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	})
	if list.Version == v0 || len(list.Sessions) != 1 || list.Sessions[0].ID != created.ID {
		t.Fatalf("after create: %+v (held version %d)", list, v0)
	}
	v1 := list.Version
	list = waitList(v1, func() {
		doJSON(t, ts, "DELETE", "/v1/sessions/"+created.ID, "", nil, http.StatusNoContent, nil)
	})
	if list.Version == v1 || len(list.Sessions) != 0 {
		t.Fatalf("after delete: %+v (held version %d)", list, v1)
	}

	start := time.Now()
	doJSON(t, ts, "GET", fmt.Sprintf("/v1/replication/sessions?%s=%d&%s=1h", api.QueryListVersion, v0, api.QueryListWait), "", nil, http.StatusOK, &list)
	if took := time.Since(start); took > 5*time.Second || list.Version == v0 {
		t.Fatalf("stale version: answered after %v with version %d", took, list.Version)
	}
	doJSON(t, ts, "GET", fmt.Sprintf("/v1/replication/sessions?%s=x", api.QueryListVersion), "", nil, http.StatusBadRequest, nil)
}

// TestCheckpointKeepsStream: a checkpoint on the primary resets its WAL, and
// a follower whose stream had sent every frame the reset took keeps that
// stream: an append after the checkpoint still reaches it, although its
// reconnect backoff is an hour.
func TestCheckpointKeepsStream(t *testing.T) {
	srvP := mustServer(t, primaryOptions(t))
	primary := httptest.NewServer(srvP.handler())
	t.Cleanup(primary.Close) // after the follower's own cleanup stops its stream
	srvF := mustServer(t, serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: roleFollower, followerOf: primary.URL,
		replicaRetry: time.Hour,
	})
	follower := httptest.NewServer(srvF.handler())
	defer follower.Close()

	var created api.CreateSessionResponse
	doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	doJSON(t, primary, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2],[3,4]]}`), http.StatusOK, nil)
	waitCaughtUp(t, follower, created.ID, 1)

	var ck api.CheckpointResponse
	doJSON(t, primary, "POST", base+"/checkpoint", "", nil, http.StatusOK, &ck)
	if ck.Seq != 1 {
		t.Fatalf("checkpoint: %+v", ck)
	}
	doJSON(t, primary, "POST", base+"/points", "application/json", []byte(`{"points":[[5,6]]}`), http.StatusOK, nil)
	waitCaughtUp(t, follower, created.ID, 2)
	var detail api.SessionDetail
	doJSON(t, follower, "GET", base, "", nil, http.StatusOK, &detail)
	if detail.Points != 3 {
		t.Fatalf("follower holds %d points, want 3", detail.Points)
	}
	// The follower journals the frames verbatim: the primary's truncated
	// log is the tail of the follower's, byte for byte.
	pw, err := os.ReadFile(filepath.Join(srvP.disk.Path(), created.ID, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := os.ReadFile(filepath.Join(srvF.disk.Path(), created.ID, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pw) <= 4 || !bytes.HasSuffix(fw, pw[4:]) {
		t.Fatalf("follower log (%d bytes) does not end with the primary's records (%d bytes)", len(fw), len(pw)-4)
	}
}

// TestListingsSkipSessionLocks: the session listings — /v1/sessions and the
// replication feed's /v1/replication/sessions — answer while a label
// recompute, parked mid-pipeline, holds the session's lock.
func TestListingsSkipSessionLocks(t *testing.T) {
	srv := mustServer(t, primaryOptions(t))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var created api.CreateSessionResponse
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2],[3,4],[5,6]]}`), http.StatusOK, nil)

	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	core.SetStageHook(func(stage string) {
		if stage == core.StageThreshold {
			once.Do(func() {
				close(started)
				<-release
			})
		}
	})
	defer core.SetStageHook(nil)
	labeled := make(chan struct{})
	go func() {
		defer close(labeled)
		resp, err := ts.Client().Get(ts.URL + base + "/labels")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	defer func() {
		close(release)
		<-labeled
	}()

	for _, path := range []string{"/v1/sessions", "/v1/replication/sessions"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			cancel()
			t.Fatalf("GET %s behind a parked recompute: %v", path, err)
		}
		var rows struct {
			Sessions []struct {
				ID     string `json:"id"`
				Points int    `json:"points"`
				Dim    int    `json:"dim"`
			} `json:"sessions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rows)
		resp.Body.Close()
		cancel()
		if err != nil || len(rows.Sessions) != 1 || rows.Sessions[0].Points != 3 || rows.Sessions[0].Dim != 2 {
			t.Fatalf("GET %s: %+v, %v; want one session of 3 points in 2-D", path, rows, err)
		}
	}
}
