package adawave

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"adawave/internal/pointset"
)

// TestSessionEmbeddingFacade: the streaming property suite lifted into the
// embedded space, on the exported surface. A random projection fits
// data-independently, so a session fed by batches must match the one-shot
// embedded run bit for bit through appends and removals; the checkpoint
// round-trip must restore the fitted embedder (labels identical through
// the shared engine and a fresh one built from the same config); and
// restoring under a different embedding spec is the typed
// ErrEmbeddingMismatch.
func TestSessionEmbeddingFacade(t *testing.T) {
	ctx := context.Background()
	data := HighDimMixture(4, 200, 16, 3, 0.2, 7)
	clusterer, err := New(
		WithEmbedding(RandomProjection(3, 11)),
		WithScale(24),
		WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess := clusterer.NewSession()
	for off := 0; off < len(data.Points); off += 301 {
		end := off + 301
		if end > len(data.Points) {
			end = len(data.Points)
		}
		if err := sess.AppendContext(ctx, pointset.MustFromSlices(data.Points[off:end])); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.RemoveContext(ctx, []int{3, 50, 51, 400}); err != nil {
		t.Fatal(err)
	}
	survivors := make([][]float64, 0, len(data.Points)-4)
	for i, p := range data.Points {
		if i == 3 || i == 50 || i == 51 || i == 400 {
			continue
		}
		survivors = append(survivors, p)
	}
	want, err := clusterer.ClusterDatasetContext(ctx, pointset.MustFromSlices(survivors))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.LabelsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels {
		if got[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, got[i], want.Labels[i])
		}
	}

	var buf bytes.Buffer
	if err := sess.CheckpointContext(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	shared, err := clusterer.RestoreSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := restoreOn(bytes.NewReader(buf.Bytes()), clusterer.Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, restored := range []*Session{shared, standalone} {
		after, err := restored.LabelsContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if after[i] != got[i] {
				t.Fatalf("label %d after restore: got %d, want %d", i, after[i], got[i])
			}
		}
	}

	// A different embedding spec (different seed counts) must refuse with
	// the typed refinement, which still matches the broad mismatch root.
	other := clusterer.Config()
	other.Embedding = RandomProjection(3, 12)
	_, err = restoreOn(bytes.NewReader(buf.Bytes()), other)
	if !errors.Is(err, ErrEmbeddingMismatch) || !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("restore under different seed: got %v, want ErrEmbeddingMismatch", err)
	}
	none := clusterer.Config()
	none.Embedding = Embedding{}
	if _, err := restoreOn(bytes.NewReader(buf.Bytes()), none); !errors.Is(err, ErrEmbeddingMismatch) {
		t.Fatalf("restore without embedding: got %v, want ErrEmbeddingMismatch", err)
	}
}
