package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adawave/client"
	"adawave/internal/api"
	"adawave/internal/dataio"
	"adawave/internal/synth"
)

// TestLabelRoutesMatchEncodingJSON pins the bytes of the label routes,
// which the internal/api label codec writes, to encoding/json's rendering
// of the same results: /labels, the NDJSON stream (three chunk lines, the
// last one short) and /multiresolution with and without labels.
func TestLabelRoutesMatchEncodingJSON(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 2, timeout: 30 * time.Second, csvBatch: 4096})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()
	id, err := cl.CreateSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := synth.RunningExampleSized(2*ndjsonChunk+100, 5)
	var csvBody bytes.Buffer
	if err := dataio.WriteCSV(&csvBody, data.Points, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AppendCSV(ctx, id, &csvBody); err != nil {
		t.Fatal(err)
	}

	srv.mu.RLock()
	ss := srv.sessions[id]
	srv.mu.RUnlock()
	sess, err := ss.acquire(srv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ResultContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := sess.MultiResolutionContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)

	get := func(path, accept string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v: %s", path, resp.StatusCode, err, body)
		}
		return body
	}
	check := func(what string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: %d bytes differ from encoding/json's %d", what, len(got), want.Len())
		}
		want.Reset()
	}

	enc.Encode(toAPIResult(res, true))
	check("/labels", get("/v1/sessions/"+id+"/labels", ""))

	var meta api.LabelsMeta
	meta.Meta.Result = toAPIResult(res, false)
	meta.Meta.Points = len(res.Labels)
	meta.Meta.Chunk = ndjsonChunk
	enc.Encode(meta)
	for off := 0; off < len(res.Labels); off += ndjsonChunk {
		end := min(off+ndjsonChunk, len(res.Labels))
		enc.Encode(api.LabelsChunk{Offset: off, Labels: res.Labels[off:end]})
	}
	check("NDJSON labels", get("/v1/sessions/"+id+"/labels", "application/x-ndjson"))

	for _, withLabels := range []bool{true, false} {
		out := make([]api.Result, len(levels))
		for i, r := range levels {
			out[i] = toAPIResult(r, withLabels)
		}
		enc.Encode(api.MultiResolutionResponse{Levels: out})
		path := "/v1/sessions/" + id + "/multiresolution?levels=3"
		if !withLabels {
			path += "&labels=false"
		}
		check(path, get(path, ""))
	}
}
