package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"adawave"
	"adawave/client"
	"adawave/internal/api"
	"adawave/internal/persist"
)

// TestServeEmbeddingSessionE2E: the embedding front-end across the wire —
// a session created with an embedding spec echoes it in its detail, labels
// match the local embedded run bit for bit, and a kill + restart recovers
// the fitted embedder from the checkpoint + WAL so the labels survive the
// crash unchanged.
func TestServeEmbeddingSessionE2E(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	opts := serverOptions{workers: 2, timeout: 30 * time.Second, dataDir: dataDir, walSync: persist.SyncAlways}
	srv1 := mustServer(t, opts)
	ts1 := httptest.NewServer(srv1.handler())
	defer ts1.Close()
	cl := client.New(ts1.URL, client.WithHTTPClient(ts1.Client()))
	ctx := context.Background()

	data := adawave.HighDimMixture(4, 150, 16, 3, 0.2, 5)
	spec := &api.EmbeddingSpec{Kind: "rp", K: 3, Seed: 21}
	scale := 24
	id, err := cl.CreateSession(ctx, &api.SessionConfig{Scale: &scale, Embedding: spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append(ctx, id, data.Points[:400]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append(ctx, id, data.Points[400:]); err != nil {
		t.Fatal(err)
	}
	detail, err := cl.Session(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Embedding == nil || *detail.Embedding != *spec {
		t.Fatalf("detail embedding: got %+v, want %+v", detail.Embedding, spec)
	}

	local, err := adawave.New(
		adawave.WithEmbedding(adawave.RandomProjection(3, 21)),
		adawave.WithScale(scale),
	)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.ClusterDatasetContext(ctx, data.Flat())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Labels(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels {
		if res.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, res.Labels[i], want.Labels[i])
		}
	}

	if _, err := cl.Checkpoint(ctx, id); err != nil {
		t.Fatal(err)
	}
	// Kill + restart: recovery must restore the fitted projection, not
	// refit it on whatever the WAL replays first.
	srv2 := mustServer(t, opts)
	ts2 := httptest.NewServer(srv2.handler())
	defer ts2.Close()
	cl2 := client.New(ts2.URL, client.WithHTTPClient(ts2.Client()))
	detail2, err := cl2.Session(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if detail2.Embedding == nil || *detail2.Embedding != *spec {
		t.Fatalf("recovered detail embedding: got %+v, want %+v", detail2.Embedding, spec)
	}
	res2, err := cl2.Labels(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels {
		if res2.Labels[i] != want.Labels[i] {
			t.Fatalf("recovered label %d: got %d, want %d", i, res2.Labels[i], want.Labels[i])
		}
	}
}

// TestServeEmbeddingSpecValidation: a bad embedding spec in the create body
// is the caller's fault, reported before any session exists.
func TestServeEmbeddingSpecValidation(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 10 * time.Second})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	for _, spec := range []*api.EmbeddingSpec{
		{Kind: "umap", K: 2},
		{Kind: "pca", K: 0},
	} {
		if _, err := cl.CreateSession(context.Background(), &api.SessionConfig{Embedding: spec}); err == nil {
			t.Fatalf("spec %+v must be rejected", spec)
		}
	}
}

// TestEmbeddingMismatchWireCode: ErrEmbeddingMismatch classifies to the
// dedicated 409 embedding_mismatch (not swallowed by the broad
// config_mismatch it wraps), and the client maps the code back onto both
// taxonomy roots.
func TestEmbeddingMismatchWireCode(t *testing.T) {
	status, code := api.Classify(persist.ErrEmbeddingMismatch)
	if status != 409 || code != api.CodeEmbeddingMismatch {
		t.Fatalf("classified as %d %s, want 409 %s", status, code, api.CodeEmbeddingMismatch)
	}
	status, code = api.Classify(persist.ErrConfigMismatch)
	if status != 409 || code != api.CodeConfigMismatch {
		t.Fatalf("bare config mismatch classified as %d %s", status, code)
	}
	wire := &client.APIError{Status: 409, Code: api.CodeEmbeddingMismatch}
	if !errors.Is(wire, adawave.ErrEmbeddingMismatch) || !errors.Is(wire, adawave.ErrConfigMismatch) {
		t.Fatal("embedding_mismatch must match both ErrEmbeddingMismatch and ErrConfigMismatch")
	}
	broad := &client.APIError{Status: 409, Code: api.CodeConfigMismatch}
	if errors.Is(broad, adawave.ErrEmbeddingMismatch) {
		t.Fatal("config_mismatch must not match the embedding refinement")
	}
	if !errors.Is(broad, adawave.ErrConfigMismatch) {
		t.Fatal("config_mismatch must match ErrConfigMismatch")
	}
}
