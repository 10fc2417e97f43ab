package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/persist"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// embedEquivCases are the dataset × spec grid of the embedding equivalence
// gate: 2-d data under a k=2 projection (PCA is then a rotation) and 8-d
// blobs compressed to 3.
func embedEquivCases() []struct {
	name string
	ds   *pointset.Dataset
	spec embed.Spec
} {
	return []struct {
		name string
		ds   *pointset.Dataset
		spec embed.Spec
	}{
		{"fig2/pca", synth.RunningExampleSized(200, 1).Flat(), embed.Spec{Kind: embed.KindPCA, K: 2}},
		{"fig2/rp", synth.RunningExampleSized(200, 1).Flat(), embed.Spec{Kind: embed.KindRP, K: 2, Seed: 7}},
		{"fig7/pca", synth.Evaluation(120, 0.6, 4).Flat(), embed.Spec{Kind: embed.KindPCA, K: 2}},
		{"blobs8d/pca", synth.Blobs(4, 150, 8, 0.5, 3).Flat(), embed.Spec{Kind: embed.KindPCA, K: 3}},
		{"blobs8d/rp", synth.Blobs(4, 150, 8, 0.5, 3).Flat(), embed.Spec{Kind: embed.KindRP, K: 3, Seed: 11}},
	}
}

// TestEmbeddingMatchesManualProjection is the embedding equivalence gate:
// clustering raw rows through a configured embedding must reproduce, bit
// for bit, clustering the manually projected rows without one — the embed
// stage is a pure front-end. The /flat half clusters one-shot (a transient
// flat base grid); the /packed half streams the rows through a Session as
// one batch (a packed live grid, the embedder fitted on the same rows).
func TestEmbeddingMatchesManualProjection(t *testing.T) {
	for _, tc := range embedEquivCases() {
		for _, packed := range []bool{false, true} {
			name := tc.name + "/flat"
			if packed {
				name = tc.name + "/packed"
			}
			t.Run(name, func(t *testing.T) {
				base := DefaultConfig()
				base.Scale = 64

				emb, err := embed.New(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := emb.Fit(tc.ds); err != nil {
					t.Fatal(err)
				}
				pds, err := emb.Transform(tc.ds)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := NewEngine(base, 2)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.ClusterDatasetContext(context.Background(), pds)
				if err != nil {
					t.Fatal(err)
				}

				cfg := base
				cfg.Embedding = tc.spec
				eng, err := NewEngine(cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				var got *Result
				if packed {
					sess := eng.NewSession()
					if err := sess.Append(tc.ds); err != nil {
						t.Fatal(err)
					}
					got, err = sess.Result()
				} else {
					got, err = eng.ClusterDatasetContext(context.Background(), tc.ds)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got.NumClusters != want.NumClusters || got.Threshold != want.Threshold {
					t.Fatalf("got %d clusters at %v, want %d at %v", got.NumClusters, got.Threshold, want.NumClusters, want.Threshold)
				}
				for i := range want.Labels {
					if got.Labels[i] != want.Labels[i] {
						t.Fatalf("label %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
					}
				}
			})
		}
	}
}

// TestEmbeddingExternalMatchesInRAM: the out-of-core path under an embedding
// must still be bit-identical to the in-RAM path — the embed stage charges
// the projected rows against the budget and hands the same projected dataset
// to the external sort.
func TestEmbeddingExternalMatchesInRAM(t *testing.T) {
	ds := synth.Blobs(4, 200, 8, 0.5, 3).Flat()
	cfg := DefaultConfig()
	cfg.Scale = 64
	cfg.Embedding = embed.Spec{Kind: embed.KindPCA, K: 3}
	eng, err := NewEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.ClusterDatasetContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ClusterDatasetExternal(t.Context(), ds, ExternalOptions{
		MaxResidentBytes: 1 << 20, SpillBytes: 1, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != want.NumClusters {
		t.Fatalf("clusters: got %d, want %d", got.NumClusters, want.NumClusters)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
}

// TestSessionEmbeddingRPMatchesOneShot: with a random projection (whose fit
// is data-independent), a session built from appends must match the one-shot
// embedded run bit for bit, through removals too — the streaming
// equivalence gate lifted into the embedded space.
func TestSessionEmbeddingRPMatchesOneShot(t *testing.T) {
	data := synth.Blobs(4, 200, 8, 0.5, 5)
	ds := data.Flat()
	cfg := DefaultConfig()
	cfg.Scale = 64
	cfg.Embedding = embed.Spec{Kind: embed.KindRP, K: 3, Seed: 13}
	for _, packed := range []bool{false, true} {
		name := "flat"
		if packed {
			name = "packed"
		}
		t.Run(name, func(t *testing.T) {
			// The live grid is always packed; the /flat half carries the
			// deprecated PackedCells=false, which core ignores.
			c := cfg
			c.PackedCells = packed
			eng, err := NewEngine(c, 2)
			if err != nil {
				t.Fatal(err)
			}
			sess := eng.NewSession()
			for off := 0; off < ds.N; off += 333 {
				end := off + 333
				if end > ds.N {
					end = ds.N
				}
				batch := &pointset.Dataset{Data: ds.Data[off*ds.D : end*ds.D], N: end - off, D: ds.D}
				if err := sess.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			want, err := eng.ClusterDatasetContext(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Labels()
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Labels {
				if got[i] != want.Labels[i] {
					t.Fatalf("label %d: got %d, want %d", i, got[i], want.Labels[i])
				}
			}

			// Remove a slice from the middle; survivors must match one-shot.
			idx := make([]int, 120)
			for i := range idx {
				idx[i] = 100 + i
			}
			if err := sess.Remove(idx); err != nil {
				t.Fatal(err)
			}
			surv := pointset.New(ds.D, ds.N-len(idx))
			for i := 0; i < ds.N; i++ {
				if i >= 100 && i < 220 {
					continue
				}
				surv.AppendRow(ds.Row(i))
			}
			wantAfter, err := eng.ClusterDatasetContext(context.Background(), surv)
			if err != nil {
				t.Fatal(err)
			}
			gotAfter, err := sess.Labels()
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantAfter.Labels {
				if gotAfter[i] != wantAfter.Labels[i] {
					t.Fatalf("label %d after removal: got %d, want %d", i, gotAfter[i], wantAfter.Labels[i])
				}
			}
		})
	}
}

// TestSessionEmbeddingCheckpointRestore: a checkpoint taken from an
// embedding session restores the fitted projection bit for bit — labels
// identical before and after, and identical again after both sessions
// append the same further batch (the restored embedder is the original fit,
// never a refit). PCA makes this sharp: a refit on different rows would
// change the projection.
func TestSessionEmbeddingCheckpointRestore(t *testing.T) {
	data := synth.Blobs(4, 220, 8, 0.5, 9)
	ds := data.Flat()
	cfg := DefaultConfig()
	cfg.Scale = 64
	cfg.Embedding = embed.Spec{Kind: embed.KindPCA, K: 3}
	eng, err := NewEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	half := &pointset.Dataset{Data: ds.Data[:(ds.N/2)*ds.D], N: ds.N / 2, D: ds.D}
	rest := &pointset.Dataset{Data: ds.Data[(ds.N/2)*ds.D:], N: ds.N - ds.N/2, D: ds.D}
	if err := sess.Append(half); err != nil {
		t.Fatal(err)
	}
	before, err := sess.Labels()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.CheckpointContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(bytes.NewReader(buf.Bytes()), eng)
	if err != nil {
		t.Fatal(err)
	}
	after, err := restored.Labels()
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("label %d after restore: got %d, want %d", i, after[i], before[i])
		}
	}
	for _, s := range []*Session{sess, restored} {
		if err := s.Append(rest); err != nil {
			t.Fatal(err)
		}
	}
	wantFull, err := sess.Labels()
	if err != nil {
		t.Fatal(err)
	}
	gotFull, err := restored.Labels()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantFull {
		if gotFull[i] != wantFull[i] {
			t.Fatalf("label %d after post-restore append: got %d, want %d", i, gotFull[i], wantFull[i])
		}
	}

	// Restoring under a different embedding spec — or none — is the typed
	// embedding mismatch, which still matches the broad config mismatch.
	other := cfg
	other.Embedding = embed.Spec{Kind: embed.KindRP, K: 3, Seed: 1}
	otherEng, err := NewEngine(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSession(bytes.NewReader(buf.Bytes()), otherEng); !errors.Is(err, persist.ErrEmbeddingMismatch) {
		t.Fatalf("restore under different spec: got %v, want ErrEmbeddingMismatch", err)
	}
	none := cfg
	none.Embedding = embed.Spec{}
	noneEng, err := NewEngine(none, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreSession(bytes.NewReader(buf.Bytes()), noneEng)
	if !errors.Is(err, persist.ErrEmbeddingMismatch) || !errors.Is(err, persist.ErrConfigMismatch) {
		t.Fatalf("restore without embedding: got %v, want ErrEmbeddingMismatch wrapping ErrConfigMismatch", err)
	}
}

// TestSessionEmbeddingEmptyCheckpoint: removing every point and
// checkpointing keeps the fitted embedder, so the restored session projects
// new appends with the original fit instead of refitting.
func TestSessionEmbeddingEmptyCheckpoint(t *testing.T) {
	ds := synth.Blobs(3, 100, 6, 0.5, 2).Flat()
	cfg := DefaultConfig()
	cfg.Scale = 32
	cfg.Embedding = embed.Spec{Kind: embed.KindPCA, K: 2}
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	if err := sess.Append(ds); err != nil {
		t.Fatal(err)
	}
	all := make([]int, ds.N)
	for i := range all {
		all[i] = i
	}
	if err := sess.Remove(all); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.CheckpointContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(bytes.NewReader(buf.Bytes()), eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{sess, restored} {
		if err := s.Append(ds); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sess.Labels()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Labels()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// pollCancelCtx is a context whose Err reports context.Canceled from its
// (n+1)-th poll on, so a test can land a cancellation at every poll point
// of a computation in turn.
type pollCancelCtx struct {
	context.Context
	left atomic.Int64
}

func cancelAfterPolls(n int) *pollCancelCtx {
	c := &pollCancelCtx{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

func (c *pollCancelCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEmbeddingCancelAtEveryPoll lands a cancel at every poll point of a
// one-shot clustering under a PCA embedding in turn, the embed stage's fit
// and projection polls included: each cancelled call aborts with the
// taxonomy error, and the first call that completes equals an uncancelled
// one.
func TestEmbeddingCancelAtEveryPoll(t *testing.T) {
	ds := synth.Blobs(4, 1500, 8, 0.5, 3).Flat()
	cfg := DefaultConfig()
	cfg.Scale = 64
	cfg.Embedding = embed.Spec{Kind: embed.KindPCA, K: 3}
	eng, err := NewEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.ClusterDatasetContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for n := 0; ; n++ {
		got, err := eng.ClusterDatasetContext(cancelAfterPolls(n), ds)
		if err == nil {
			assertResultsEqual(t, want, got)
			break
		}
		if !errors.Is(err, grid.ErrCanceled) || !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("polls=%d: got a result %v, err %v; want none and ErrCanceled", n, got != nil, err)
		}
		cancelled++
	}
	// The fit alone polls per sample block of each covariance shard and the
	// projection per row block of each shard.
	t.Logf("%d poll points cancelled", cancelled)
	if cancelled < 10 {
		t.Fatalf("only %d poll points cancelled", cancelled)
	}
}

// TestSessionEmbeddingAppendCancel lands a cancel at every poll point of a
// session's first append under PCA, which fits the embedder and projects
// the batch. A cancelled append leaves the session empty and unfitted, so
// appending the same batch again gives a session bit-identical to one that
// was never cancelled: the same fitted embedder, projected rows,
// checkpoint bytes and labels.
func TestSessionEmbeddingAppendCancel(t *testing.T) {
	ds := synth.Blobs(4, 1500, 8, 0.5, 3).Flat()
	cfg := DefaultConfig()
	cfg.Scale = 64
	cfg.Embedding = embed.Spec{Kind: embed.KindPCA, K: 3}
	eng, err := NewEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(s *Session) ([]byte, []int) {
		var buf bytes.Buffer
		if err := s.CheckpointContext(context.Background(), &buf); err != nil {
			t.Fatal(err)
		}
		labels, err := s.Labels()
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), labels
	}
	ref := eng.NewSession()
	if err := ref.AppendContext(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	wantCkpt, wantLabels := snapshot(ref)
	cancelled := 0
	for n := 0; ; n++ {
		sess := eng.NewSession()
		err := sess.AppendContext(cancelAfterPolls(n), ds)
		if err == nil {
			break
		}
		if !errors.Is(err, grid.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: err %v, want ErrCanceled", n, err)
		}
		if sess.Len() != 0 || sess.emb != nil || sess.eds != nil {
			t.Fatalf("polls=%d: cancelled append changed the session", n)
		}
		if err := sess.AppendContext(context.Background(), ds); err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(sess.eds.Data, ref.eds.Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("polls=%d: projected rows differ from the never-cancelled session", n)
		}
		gotCkpt, gotLabels := snapshot(sess)
		if !bytes.Equal(gotCkpt, wantCkpt) || !slices.Equal(gotLabels, wantLabels) {
			t.Fatalf("polls=%d: session differs from the never-cancelled one", n)
		}
		cancelled++
	}
	t.Logf("%d poll points cancelled", cancelled)
	if cancelled < 10 {
		t.Fatalf("only %d poll points cancelled", cancelled)
	}
}
