package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"adawave/internal/api"
)

// failoverStub answers n 503s (with Retry-After, the router's mid-failover
// contract) before succeeding.
func failoverStub(t *testing.T, fail503 int32) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= fail503 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"unavailable","message":"shard failing over"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch r.Method {
		case http.MethodGet:
			w.Write([]byte(`{"status":"ok","sessions":0}`))
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestRetryIdempotentOn503(t *testing.T) {
	srv, calls := failoverStub(t, 2)
	c := New(srv.URL, WithRetry(3))
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("GET through a failover window: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s then success)", got)
	}
}

func TestNoRetryPostOn503(t *testing.T) {
	srv, calls := failoverStub(t, 1)
	c := New(srv.URL, WithRetry(3))
	_, err := c.CreateSession(context.Background(), nil)
	if err == nil {
		t.Fatal("POST through a 503 must surface the error, not replay")
	}
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want the 503 APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (no POST replay)", got)
	}
}

func TestNoRetry503WithoutBudget(t *testing.T) {
	srv, calls := failoverStub(t, 1)
	c := New(srv.URL) // no WithRetry
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatal("503 without a retry budget must surface")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

// ndjsonStub serves the given NDJSON lines as a labels stream.
func ndjsonStub(t *testing.T, lines ...string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, l := range lines {
			w.Write([]byte(l + "\n"))
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

const streamMeta = `{"meta":{"result":{"numClusters":1,"noise":0,"threshold":0.5,"levels":1,"scale":8,"cellsQuantized":1,"cellsTransformed":1,"cellsKept":1},"points":4,"chunk":2}}`

// TestLabelsStreamChecksOffsets: a stream whose chunks are out of order, or
// repeat one chunk in place of another, carries the right label count but
// the wrong vector; LabelsStream must reject it instead of handing fn
// labels at the wrong offsets.
func TestLabelsStreamChecksOffsets(t *testing.T) {
	for name, chunks := range map[string][]string{
		"out of order": {`{"offset":2,"labels":[1,1]}`, `{"offset":0,"labels":[0,0]}`},
		"repeated":     {`{"offset":0,"labels":[0,0]}`, `{"offset":0,"labels":[0,0]}`},
		"gap":          {`{"offset":0,"labels":[0]}`, `{"offset":2,"labels":[1,1,1]}`},
	} {
		srv := ndjsonStub(t, append([]string{streamMeta}, chunks...)...)
		calls := 0
		_, err := New(srv.URL).LabelsStream(context.Background(), "s", func(int, []int) error {
			calls++
			return nil
		})
		if err == nil {
			t.Errorf("%s: stream accepted", name)
		}
		if calls > 1 {
			t.Errorf("%s: fn saw %d chunks, want at most the first", name, calls)
		}
	}

	srv := ndjsonStub(t, streamMeta, `{"offset":0,"labels":[0,-1]}`, `{"offset":2, "labels":[1,0]}`)
	var got []int
	res, err := New(srv.URL).LabelsStream(context.Background(), "s", func(off int, labels []int) error {
		if off != len(got) {
			t.Errorf("chunk at offset %d after %d labels", off, len(got))
		}
		got = append(got, labels...)
		return nil
	})
	if err != nil || res.NumClusters != 1 || !reflect.DeepEqual(got, []int{0, -1, 1, 0}) {
		t.Fatalf("in-order stream: %+v, %v, labels %v", res, err, got)
	}
}

// TestLabelsDecodesEveryShape: Labels reads the body the server writes and,
// through the encoding/json fallback, any other rendering of it.
func TestLabelsDecodesEveryShape(t *testing.T) {
	want := &api.Result{Labels: []int{-1, 0, 2}, NumClusters: 3, Threshold: 0.125, Scale: 16}
	for _, body := range []string{
		string(api.AppendResult(nil, want)),
		`{ "labels": [-1, 0, 2], "numClusters": 3, "threshold": 1.25e-1, "scale": 16 }`,
		`{"scale":16,"threshold":0.125,"numClusters":3,"labels":[-1,0,2]}`,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(body))
		}))
		got, err := New(srv.URL).Labels(context.Background(), "s")
		srv.Close()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("body %s: got %+v, %v", body, got, err)
		}
	}
}
