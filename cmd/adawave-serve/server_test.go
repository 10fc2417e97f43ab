package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/dataio"
	"adawave/internal/oracle"
	"adawave/internal/synth"
)

// mustServer builds a server from opts, failing the test on error and
// closing it (stopping background goroutines, flushing WALs) at cleanup.
func mustServer(t *testing.T, opts serverOptions) *server {
	t.Helper()
	srv, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// doJSON issues one request against the test server and decodes the JSON
// response into out (skipped when out is nil).
func doJSON(t *testing.T, ts *httptest.Server, method, path, contentType string, body []byte, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad json %q: %v", method, path, raw, err)
		}
	}
}

// TestServeLifecycle is the CI smoke test: create session → append (JSON and
// chunked CSV) → read labels (asserted bit-identical to the one-shot
// library call) → multi-resolution → remove → delete → 404.
func TestServeLifecycle(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 2, timeout: 30 * time.Second, csvBatch: 64})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	data := adawave.SyntheticEvaluation(200, 0.5, 3)
	half := len(data.Points) / 2

	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "application/json", []byte(`{"scale":128}`), http.StatusCreated, &created)
	if created.ID == "" {
		t.Fatal("no session id")
	}
	base := "/v1/sessions/" + created.ID

	// Reading an empty session is a sequencing error, not a crash.
	doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusConflict, nil)

	// First half as a JSON batch.
	batch, err := json.Marshal(map[string]any{"points": data.Points[:half]})
	if err != nil {
		t.Fatal(err)
	}
	var appended struct {
		Appended int `json:"appended"`
		Points   int `json:"points"`
	}
	doJSON(t, ts, "POST", base+"/points", "application/json", batch, http.StatusOK, &appended)
	if appended.Points != half {
		t.Fatalf("points after JSON batch: got %d, want %d", appended.Points, half)
	}

	// Second half as a CSV body, streamed through the chunked reader.
	var csvBody bytes.Buffer
	if err := dataio.WriteCSV(&csvBody, data.Points[half:], nil); err != nil {
		t.Fatal(err)
	}
	doJSON(t, ts, "POST", base+"/points", "text/csv", csvBody.Bytes(), http.StatusOK, &appended)
	if appended.Points != len(data.Points) || appended.Appended != len(data.Points)-half {
		t.Fatalf("points after CSV batch: got %d/%d", appended.Appended, appended.Points)
	}

	var got struct {
		Labels      []int `json:"labels"`
		NumClusters int   `json:"numClusters"`
	}
	doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusOK, &got)

	want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != want.NumClusters || len(got.Labels) != len(want.Labels) {
		t.Fatalf("served result: %d clusters / %d labels, want %d / %d",
			got.NumClusters, len(got.Labels), want.NumClusters, len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}

	var multi struct {
		Levels []struct {
			Levels      int   `json:"levels"`
			NumClusters int   `json:"numClusters"`
			Labels      []int `json:"labels"`
		} `json:"levels"`
	}
	doJSON(t, ts, "GET", base+"/multiresolution?levels=3", "", nil, http.StatusOK, &multi)
	if len(multi.Levels) == 0 || multi.Levels[0].Levels != 1 {
		t.Fatalf("multiresolution: %+v", multi.Levels)
	}
	for i := range multi.Levels[0].Labels {
		if multi.Levels[0].Labels[i] != want.Labels[i] {
			t.Fatalf("level-1 label %d diverges from single-level result", i)
		}
	}

	var removed struct {
		Points int `json:"points"`
	}
	doJSON(t, ts, "DELETE", base+"/points", "application/json", []byte(`{"indices":[0,1,2]}`), http.StatusOK, &removed)
	if removed.Points != len(data.Points)-3 {
		t.Fatalf("points after removal: got %d", removed.Points)
	}
	doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusOK, &got)
	if len(got.Labels) != len(data.Points)-3 {
		t.Fatalf("labels after removal: got %d", len(got.Labels))
	}

	var listed struct {
		Sessions []struct {
			ID     string `json:"id"`
			Points int    `json:"points"`
		} `json:"sessions"`
	}
	doJSON(t, ts, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
	if len(listed.Sessions) != 1 || listed.Sessions[0].Points != len(data.Points)-3 {
		t.Fatalf("session list: %+v", listed.Sessions)
	}

	doJSON(t, ts, "DELETE", base, "", nil, http.StatusNoContent, nil)
	doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusNotFound, nil)
	doJSON(t, ts, "DELETE", base, "", nil, http.StatusNotFound, nil)
}

// TestServeConcurrentReaders hammers labels reads while batches stream in —
// the race-detector rendering of the one-writer-many-readers contract.
func TestServeConcurrentReaders(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 2, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID

	data := adawave.SyntheticEvaluation(120, 0.4, 5)
	first, err := json.Marshal(map[string]any{"points": data.Points[:50]})
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, ts, "POST", base+"/points", "application/json", first, http.StatusOK, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + base + "/labels")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for off := 50; off < len(data.Points); off += 37 {
		end := off + 37
		if end > len(data.Points) {
			end = len(data.Points)
		}
		batch, err := json.Marshal(map[string]any{"points": data.Points[off:end]})
		if err != nil {
			t.Fatal(err)
		}
		doJSON(t, ts, "POST", base+"/points", "application/json", batch, http.StatusOK, nil)
	}
	close(stop)
	wg.Wait()

	var got struct {
		Labels []int `json:"labels"`
	}
	doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusOK, &got)
	if len(got.Labels) != len(data.Points) {
		t.Fatalf("labels: got %d, want %d", len(got.Labels), len(data.Points))
	}
}

// TestServeBadRequests covers the 4xx surface.
func TestServeBadRequests(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	doJSON(t, ts, "POST", "/v1/sessions", "application/json", []byte(`{"scale":1}`), http.StatusBadRequest, nil)
	doJSON(t, ts, "POST", "/v1/sessions", "application/json", []byte(`{"basis":"nope"}`), http.StatusBadRequest, nil)
	doJSON(t, ts, "POST", "/v1/sessions", "application/json", []byte(`{"connectivity":"diagonal"}`), http.StatusBadRequest, nil)
	doJSON(t, ts, "POST", "/v1/sessions/s999/points", "application/json", []byte(`{"points":[[1,2]]}`), http.StatusNotFound, nil)

	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2],[3]]}`), http.StatusBadRequest, nil)
	doJSON(t, ts, "POST", base+"/points", "text/csv", []byte("x0,x1\n1,2\n3\n"), http.StatusBadRequest, nil)
	// Rows narrower or wider than the header are refused like a ragged row,
	// not read as 1-D points with a label or as 3-D points.
	doJSON(t, ts, "POST", base+"/points", "text/csv", []byte("x0,x1,label\n1,2\n3,4\n"), http.StatusBadRequest, nil)
	doJSON(t, ts, "POST", base+"/points", "text/csv", []byte("x0,x1\n1,2,0\n3,4,1\n"), http.StatusBadRequest, nil)
	// A failed CSV upload must be atomic: no partial rows survive it.
	var listed struct {
		Sessions []struct {
			Points int `json:"points"`
		} `json:"sessions"`
	}
	doJSON(t, ts, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
	if len(listed.Sessions) != 1 || listed.Sessions[0].Points != 0 {
		t.Fatalf("failed uploads must roll back: %+v", listed.Sessions)
	}
	// A dimension mismatch against the session is the caller's mistake: 400
	// invalid_input, never a 500 that would blame (and page) the server.
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2]]}`), http.StatusOK, nil)
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2,3]]}`), http.StatusBadRequest, nil)
	doJSON(t, ts, "DELETE", base+"/points", "application/json", []byte(`{"indices":[5]}`), http.StatusBadRequest, nil)
	doJSON(t, ts, "GET", base+"/multiresolution?levels=zero", "", nil, http.StatusBadRequest, nil)
	doJSON(t, ts, "GET", base+"/multiresolution?levels=-1", "", nil, http.StatusBadRequest, nil)
}

// TestServeMultiResolutionDensificationCap: a multi-resolution read that
// densifies the sparse grid past the transform's growth cap answers 422
// invalid_input, like a one-shot read of the same session. 400 uniform 6-D
// points at scale 64 under the 6-tap DB6 filter cross the cap in one level.
func TestServeMultiResolutionDensificationCap(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "application/json", []byte(`{"scale":64,"basis":"db6"}`), http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	mins, maxs := make([]float64, 6), []float64{1, 1, 1, 1, 1, 1}
	body, err := json.Marshal(map[string]any{"points": synth.UniformBox(rand.New(rand.NewSource(1)), 400, mins, maxs)})
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, ts, "POST", base+"/points", "application/json", body, http.StatusOK, nil)
	for _, path := range []string{"/labels", "/multiresolution?levels=1"} {
		var env api.ErrorResponse
		doJSON(t, ts, "GET", base+path, "", nil, http.StatusUnprocessableEntity, &env)
		if env.Error.Code != api.CodeInvalidInput {
			t.Fatalf("GET %s: code %q, want %q", path, env.Error.Code, api.CodeInvalidInput)
		}
	}
}

// TestServeCSVRollback: a CSV upload that fails after whole chunks were
// already appended must roll those chunks back — failed ingestion is
// atomic, so a client retry cannot duplicate points.
func TestServeCSVRollback(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second, csvBatch: 2}) // 2-row chunks
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	// Pre-existing points must survive the rollback untouched.
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[9,9],[8,8]]}`), http.StatusOK, nil)
	// Rows 1–4 form two full chunks that append successfully; row 5 is
	// malformed and fails mid-stream.
	bad := "1,2\n3,4\n5,6\n7,8\nnope,0\n"
	doJSON(t, ts, "POST", base+"/points", "text/csv", []byte(bad), http.StatusBadRequest, nil)
	var listed struct {
		Sessions []struct {
			Points int `json:"points"`
		} `json:"sessions"`
	}
	doJSON(t, ts, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
	if len(listed.Sessions) != 1 || listed.Sessions[0].Points != 2 {
		t.Fatalf("failed upload must roll back to the 2 pre-existing points: %+v", listed.Sessions)
	}
}

// TestServeResourceCaps: the session-count and per-session point limits
// answer 429/413 instead of letting a client grow memory without bound.
func TestServeResourceCaps(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second, csvBatch: 2, maxSessions: 2, maxPoints: 5})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, nil)
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusTooManyRequests, nil)
	base := "/v1/sessions/" + created.ID
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2],[3,4],[5,6]]}`), http.StatusOK, nil)
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2],[3,4],[5,6]]}`), http.StatusRequestEntityTooLarge, nil)
	// The CSV path enforces the same cap mid-stream (classified 413
	// point_limit like the JSON path) and rolls back its own chunks,
	// leaving exactly the pre-existing 3 points.
	doJSON(t, ts, "POST", base+"/points", "text/csv", []byte("1,2\n3,4\n5,6\n7,8\n"), http.StatusRequestEntityTooLarge, nil)
	var listed struct {
		Sessions []struct {
			ID     string `json:"id"`
			Points int    `json:"points"`
		} `json:"sessions"`
	}
	doJSON(t, ts, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
	for _, row := range listed.Sessions {
		if row.ID == created.ID && row.Points != 3 {
			t.Fatalf("capped session must keep its 3 points, got %d", row.Points)
		}
	}
}

// TestServeRequestTimeout: the request-scoped deadline rides the request
// context into the engine, so a request that cannot finish in time answers
// 504 deadline_exceeded — and, because the ctx-aware mutation path refuses
// to apply after the deadline, the session is left untouched (a client
// retry cannot duplicate the batch).
func TestServeRequestTimeout(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: time.Nanosecond})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+created.ID+"/points",
		"application/json", bytes.NewReader([]byte(`{"points":[[1,2],[3,4]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status: got %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("deadline_exceeded")) {
		t.Fatalf("timeout body: %s", body)
	}
}

// TestServeAppendEquivalence streams a dataset over HTTP in many batch
// shapes; the served labels must be bit-identical regardless of batching.
func TestServeAppendEquivalence(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second, csvBatch: 16})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	data := adawave.SyntheticEvaluation(100, 0.3, 11)
	want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{13, 77, len(data.Points)} {
		var created struct {
			ID string `json:"id"`
		}
		doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
		base := "/v1/sessions/" + created.ID
		for off := 0; off < len(data.Points); off += step {
			end := off + step
			if end > len(data.Points) {
				end = len(data.Points)
			}
			batch, err := json.Marshal(map[string]any{"points": data.Points[off:end]})
			if err != nil {
				t.Fatal(err)
			}
			doJSON(t, ts, "POST", base+"/points", "application/json", batch, http.StatusOK, nil)
		}
		var got struct {
			Labels []int `json:"labels"`
		}
		doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusOK, &got)
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("step %d: label %d: got %d, want %d", step, i, got.Labels[i], want.Labels[i])
			}
		}
		doJSON(t, ts, "DELETE", base, "", nil, http.StatusNoContent, nil)
	}
}
