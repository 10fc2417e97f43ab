package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"adawave"
	"adawave/client"
	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/dataio"
	"adawave/internal/oracle"
	"adawave/internal/synth"
)

// TestServeV1ClientLifecycle drives the full v1 surface through the typed
// adawave/client package: healthz → create → detail → append (JSON + CSV) →
// labels (JSON and NDJSON stream, asserted identical to the in-process
// library) → multiresolution → metrics → remove → checkpoint-conflict →
// delete. This doubles as the client package's end-to-end test.
func TestServeV1ClientLifecycle(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 2, timeout: 30 * time.Second, csvBatch: 64})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	hz, err := cl.Healthz(ctx)
	if err != nil || hz.Status != "ok" || hz.Sessions != 0 {
		t.Fatalf("healthz: %+v, %v", hz, err)
	}

	id, err := cl.CreateSession(ctx, nil)
	if err != nil || id == "" {
		t.Fatalf("create: %q, %v", id, err)
	}

	// Reading an empty session maps to the taxonomy across the wire.
	if _, err := cl.Labels(ctx, id); !errors.Is(err, adawave.ErrNoPoints) {
		t.Fatalf("empty labels: %v must match adawave.ErrNoPoints", err)
	}

	data := adawave.SyntheticEvaluation(200, 0.5, 3)
	half := len(data.Points) / 2
	if _, err := cl.Append(ctx, id, data.Points[:half]); err != nil {
		t.Fatal(err)
	}
	var csvBody bytes.Buffer
	if err := dataio.WriteCSV(&csvBody, data.Points[half:], nil); err != nil {
		t.Fatal(err)
	}
	ap, err := cl.AppendCSV(ctx, id, &csvBody)
	if err != nil || ap.Points != len(data.Points) {
		t.Fatalf("csv append: %+v, %v", ap, err)
	}

	want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Labels(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != want.NumClusters || len(res.Labels) != len(want.Labels) {
		t.Fatalf("labels: %d clusters / %d labels, want %d / %d", res.NumClusters, len(res.Labels), want.NumClusters, len(want.Labels))
	}
	for i := range want.Labels {
		if res.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, res.Labels[i], want.Labels[i])
		}
	}

	// The NDJSON stream reassembles to the same labels, and its meta equals
	// the JSON diagnostics.
	streamed := make([]int, len(want.Labels))
	meta, err := cl.LabelsStream(ctx, id, func(off int, labels []int) error {
		copy(streamed[off:], labels)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumClusters != want.NumClusters || meta.Threshold != res.Threshold {
		t.Fatalf("NDJSON meta: %+v", meta)
	}
	for i := range want.Labels {
		if streamed[i] != want.Labels[i] {
			t.Fatalf("streamed label %d: got %d, want %d", i, streamed[i], want.Labels[i])
		}
	}

	detail, err := cl.Session(ctx, id)
	if err != nil || detail.Points != len(data.Points) || detail.Dim != 2 || detail.Cells <= 0 || detail.Durable {
		t.Fatalf("detail: %+v, %v", detail, err)
	}
	if detail.Cells != res.CellsQuantized {
		t.Fatalf("detail cells %d != result cellsQuantized %d", detail.Cells, res.CellsQuantized)
	}

	levels, err := cl.MultiResolution(ctx, id, 3)
	if err != nil || len(levels) == 0 || levels[0].Levels != 1 {
		t.Fatalf("multiresolution: %+v, %v", levels, err)
	}
	for i := range levels[0].Labels {
		if levels[0].Labels[i] != want.Labels[i] {
			t.Fatalf("level-1 label %d diverges from single-level result", i)
		}
	}

	if _, err := cl.Remove(ctx, id, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if list, err := cl.ListSessions(ctx); err != nil || len(list) != 1 || list[0].Points != len(data.Points)-3 {
		t.Fatalf("list: %+v, %v", list, err)
	}

	// Checkpointing without -data-dir is a conflict, delivered typed.
	if _, err := cl.Checkpoint(ctx, id); err == nil {
		t.Fatal("checkpoint without -data-dir must fail")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
			t.Fatalf("checkpoint error: %v", err)
		}
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Routes["labels"].Requests < 2 || m.Routes["append_points"].Requests < 2 {
		t.Fatalf("metrics did not count the traffic: %+v", m.Routes)
	}
	if m.Routes["labels"].Errors != 0 {
		t.Fatalf("labels route recorded server errors: %+v", m.Routes["labels"])
	}

	if err := cl.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Labels(ctx, id); err == nil {
		t.Fatal("deleted session still serves")
	}
}

// TestServeLegacyRoutesRemoved: the unversioned /sessions... routes are
// gone, not aliased — they answer 404 without a Deprecation header and touch
// no session — while the same requests under /v1 still answer.
func TestServeLegacyRoutesRemoved(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, nil)
	batch := []byte(`{"points":[[0,0],[0.1,0.1],[0.9,0.9],[1,1]]}`)
	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{"GET", "/sessions", nil},
		{"POST", "/sessions/s1/points", batch},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		}
		if d := resp.Header.Get("Deprecation"); d != "" {
			t.Fatalf("%s %s: Deprecation header %q on a removed route", c.method, c.path, d)
		}
		doJSON(t, ts, c.method, "/v1"+c.path, "application/json", c.body, http.StatusOK, nil)
	}
	// Only the /v1 append landed.
	var detail api.SessionDetail
	doJSON(t, ts, "GET", "/v1/sessions/s1", "", nil, http.StatusOK, &detail)
	if detail.Points != 4 {
		t.Fatalf("s1 holds %d points, want the 4 appended through /v1", detail.Points)
	}
}

// TestServeWriterLockRespectsDeadline: a mutation queued behind a long
// writer (e.g. a multi-minute CSV upload holding the session writer lock)
// must give up at its request deadline with 504 instead of blocking
// unresponsively until the writer finishes — and must not have mutated.
func TestServeWriterLockRespectsDeadline(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 300 * time.Millisecond})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()
	id, err := cl.CreateSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append(ctx, id, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	srv.mu.RLock()
	ss := srv.sessions[id]
	srv.mu.RUnlock()
	if err := ss.lockWrite(ctx); err != nil { // impersonate a long writer
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err = cl.Append(ctx, id, [][]float64{{5, 6}})
	ss.unlockWrite()
	if err == nil {
		t.Fatal("queued append succeeded while the writer lock was held")
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("queued append: %v (want 504)", err)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Fatalf("queued append blocked %v instead of honoring the 300ms deadline", waited)
	}
	res, err := cl.Labels(ctx, id)
	if err != nil || len(res.Labels) != 2 {
		t.Fatalf("session after refused mutation: %+v, %v (want the original 2 points)", res, err)
	}
}

// TestServeClientDisconnectAbortsPipeline is the acceptance e2e: on a
// ≥50k-point session, a client that hangs up mid-labels-compute aborts the
// in-flight pipeline (observed through the 499 client-abort counter on
// /v1/metrics — the wire-visible rendering of the cancellation test hooks),
// and the session stays fully usable, serving labels bit-identical to the
// in-process library afterwards. The core stage hook gates the pipeline at
// the threshold stage so the cancel deterministically lands mid-compute.
func TestServeClientDisconnectAbortsPipeline(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 2, timeout: 30 * time.Second, csvBatch: 8192})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	id, err := cl.CreateSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := synth.RunningExampleSized(52_000, 9)
	var csvBody bytes.Buffer
	if err := dataio.WriteCSV(&csvBody, data.Points, nil); err != nil {
		t.Fatal(err)
	}
	if ap, err := cl.AppendCSV(ctx, id, &csvBody); err != nil || ap.Points != len(data.Points) {
		t.Fatalf("append: %+v, %v", ap, err)
	}

	aborted := false
	for attempt := 0; attempt < 10 && !aborted; attempt++ {
		started := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		core.SetStageHook(func(stage string) {
			if stage == core.StageThreshold {
				once.Do(func() {
					close(started)
					<-release
				})
			}
		})
		rctx, rcancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := cl.Labels(rctx, id)
			done <- err
		}()
		<-started // the pipeline is provably in flight
		rcancel() // client hangs up
		// Give the server a beat to observe the closed connection, then let
		// the gated pipeline hit its next cancellation poll.
		time.Sleep(150 * time.Millisecond)
		close(release)
		if err := <-done; err == nil {
			t.Fatal("cancelled labels call returned success on the client")
		}
		core.SetStageHook(nil)

		m, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		aborted = m.Routes["labels"].ClientAborts >= 1
	}
	if !aborted {
		t.Fatal("client disconnect never aborted the in-flight pipeline (no 499 recorded)")
	}

	// The aborted session serves the bit-identical labels on the next read,
	// through the NDJSON stream for good measure (52k points → 7 chunks).
	want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(want.Labels))
	meta, err := cl.LabelsStream(ctx, id, func(off int, labels []int) error {
		copy(got[off:], labels)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumClusters != want.NumClusters {
		t.Fatalf("clusters after abort: got %d, want %d", meta.NumClusters, want.NumClusters)
	}
	for i := range want.Labels {
		if got[i] != want.Labels[i] {
			t.Fatalf("label %d after abort: got %d, want %d", i, got[i], want.Labels[i])
		}
	}
}
