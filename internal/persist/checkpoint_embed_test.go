package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// embedState builds a session state with a fitted embedder: raw 3-d rows,
// a seeded random projection down to 2, and the grid built in the projected
// space — exactly what an embedding session checkpoints.
func embedState(t testing.TB, n int) *SessionState {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ds := pointset.New(3, n)
	for i := 0; i < n; i++ {
		ds.AppendRow([]float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10})
	}
	spec := embed.Spec{Kind: embed.KindRP, K: 2, Seed: 5}
	emb, err := embed.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Fit(ds); err != nil {
		t.Fatal(err)
	}
	pds, err := emb.Transform(ds)
	if err != nil {
		t.Fatal(err)
	}
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), pds, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, ids, err := q.QuantizeDatasetCtx(context.Background(), pds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &SessionState{
		Config: ConfigMeta{Scale: 16, Levels: 1, Basis: "cdf22", Connectivity: "faces",
			CoeffEpsilon: 0.01, Threshold: "three-segment-fit", MinClusterCells: 1, MinClusterMass: 0.05,
			Embedding: spec.String()},
		DS: ds, IDs: ids, Scale: 16, Mins: q.Mins, Maxs: q.Maxs, Grid: grid.PackFlat(g), Embedder: emb,
	}
}

func TestCheckpointEmbeddingRoundTrip(t *testing.T) {
	want := embedState(t, 150)
	var buf bytes.Buffer
	if err := WriteSessionCheckpoint(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSessionCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertStatesEqual(t, want, got)
	if got.Embedder == nil {
		t.Fatal("embedder not restored")
	}
	wb, err := want.Embedder.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.Embedder.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("restored embedder parameters differ from the fitted ones")
	}
	if len(got.Mins) != 2 || len(got.Maxs) != 2 {
		t.Fatalf("frame restored in %d dims, want the 2-d projected space", len(got.Mins))
	}
}

// TestCheckpointEmptyFittedEmbedder: a session whose rows were all removed
// keeps its fitted embedder, so a restore followed by appends projects with
// the original fit.
func TestCheckpointEmptyFittedEmbedder(t *testing.T) {
	st := embedState(t, 40)
	st.DS = &pointset.Dataset{D: 3}
	st.IDs, st.Mins, st.Maxs, st.Grid = nil, nil, nil, nil
	var buf bytes.Buffer
	if err := WriteSessionCheckpoint(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSessionCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DS.N != 0 || got.Embedder == nil {
		t.Fatalf("got %d points, embedder %v; want empty with a fitted embedder", got.DS.N, got.Embedder)
	}
}

// TestCheckpointNoEmbeddingLayoutUnchanged pins backward compatibility: a
// checkpoint without an embedding must be byte-for-byte the pre-embedding
// format — no embedding key in the config JSON, no embLen section, and a
// total length that matches the old layout arithmetic exactly.
func TestCheckpointNoEmbeddingLayoutUnchanged(t *testing.T) {
	st := testState(t, 32)
	var buf bytes.Buffer
	if err := WriteSessionCheckpoint(&buf, st); err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(st.Config)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cfg), "embedding") {
		t.Fatalf("config JSON %s leaks an embedding field into no-embedding checkpoints", cfg)
	}
	var gbuf bytes.Buffer
	if err := st.Grid.WriteSnapshot(&gbuf); err != nil {
		t.Fatal(err)
	}
	n, d := st.DS.N, st.DS.D
	want := 4 + 4 + len(cfg) + 8 + 4 + // magic, cfgLen, cfg, n, d
		8*n*d + // rows
		4 + 8*d + 8*d + // scale, mins, maxs
		4*n + // ids
		8 + gbuf.Len() + // gridLen, grid
		4 // crc
	if buf.Len() != want {
		t.Fatalf("no-embedding checkpoint is %d bytes, old format is %d", buf.Len(), want)
	}
}

func TestCheckConfigEmbeddingMismatch(t *testing.T) {
	a := ConfigMeta{Scale: 128, Basis: "cdf22", Threshold: "three-segment-fit", Embedding: "pca(k=4)"}
	if err := CheckConfig(a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Embedding = "rp(k=4,seed=1)"
	err := CheckConfig(a, b)
	if !errors.Is(err, ErrEmbeddingMismatch) {
		t.Fatalf("got %v, want ErrEmbeddingMismatch", err)
	}
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatal("ErrEmbeddingMismatch must still match ErrConfigMismatch")
	}
	c := a
	c.Embedding = ""
	if err := CheckConfig(a, c); !errors.Is(err, ErrEmbeddingMismatch) {
		t.Fatalf("embedding vs none: got %v, want ErrEmbeddingMismatch", err)
	}
	// A non-embedding difference stays the broad mismatch.
	d := a
	d.Basis = "haar"
	err = CheckConfig(a, d)
	if !errors.Is(err, ErrConfigMismatch) || errors.Is(err, ErrEmbeddingMismatch) {
		t.Fatalf("basis mismatch classified as %v", err)
	}
}

// TestCheckpointEmbeddingRejectsBadState: writer-side invariants and
// reader-side corruption of the embedder section.
func TestCheckpointEmbeddingRejectsBadState(t *testing.T) {
	st := embedState(t, 24)
	noEmb := *st
	noEmb.Embedder = nil
	if err := WriteSessionCheckpoint(io.Discard, &noEmb); err == nil {
		t.Fatal("points without a fitted embedder must refuse to checkpoint")
	}
	wrongSpec := *st
	wrongSpec.Config.Embedding = "pca(k=2)"
	if err := WriteSessionCheckpoint(io.Discard, &wrongSpec); err == nil {
		t.Fatal("embedder spec disagreeing with the config must refuse to checkpoint")
	}

	var buf bytes.Buffer
	if err := WriteSessionCheckpoint(&buf, st); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, cut := range []int{len(good) / 4, len(good) / 2, len(good) - 1} {
		if _, err := ReadSessionCheckpoint(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	for _, flip := range []int{20, len(good) / 3, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[flip] ^= 0xFF
		if _, err := ReadSessionCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipped byte at %d must error", flip)
		}
	}
}
