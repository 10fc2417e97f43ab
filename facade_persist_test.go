package adawave

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"adawave/internal/pointset"
)

// TestSessionCheckpointFacade: the exported CheckpointContext/RestoreSession
// pair round-trips a mutated session bit-identically, through both the
// checkpointing Clusterer's engine and a fresh one built from the same
// configuration.
func TestSessionCheckpointFacade(t *testing.T) {
	ctx := context.Background()
	data := SyntheticEvaluation(300, 0.6, 9)
	clusterer, err := New(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	sess := clusterer.NewSession()
	if err := sess.AppendContext(ctx, pointset.MustFromSlices(data.Points)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LabelsContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.RemoveContext(ctx, []int{10, 11, 40}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sess.CheckpointContext(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := sess.LabelsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}

	shared, err := clusterer.RestoreSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := restoreOn(bytes.NewReader(buf.Bytes()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, restored := range []*Session{shared, standalone} {
		got, err := restored.LabelsContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("labels: got %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("label %d: got %d, want %d", i, got[i], want[i])
			}
		}
	}

	// A mismatched configuration must refuse to restore.
	bad := DefaultConfig()
	bad.Basis = HaarBasis()
	if _, err := restoreOn(bytes.NewReader(buf.Bytes()), bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("config mismatch: got %v, want ErrConfigMismatch", err)
	}
}

// restoreOn restores a checkpoint onto a fresh single-worker clusterer built
// from cfg — the path of a process that did not write the checkpoint.
func restoreOn(r io.Reader, cfg Config) (*Session, error) {
	c, err := New(WithConfig(cfg), WithWorkers(1))
	if err != nil {
		return nil, err
	}
	return c.RestoreSession(r)
}
