package cluster

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"adawave"
	"adawave/internal/core"
	"adawave/internal/persist"
	"adawave/internal/pointset"
)

// TestRefusedSessionDirLeftAsFound: recovery that refuses a directory — its
// newest checkpoint unrestorable and a bit-flipped WAL record ending replay
// short of it — leaves every byte in place for inspection, and a later
// Create of the same id fails as existing instead of overwriting it.
func TestRefusedSessionDirLeftAsFound(t *testing.T) {
	root, err := OpenSessionRoot(persist.OS, t.TempDir(), persist.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	c, err := adawave.New(adawave.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	meta := core.ConfigFingerprint(c.Config())
	d, err := root.Create("s1", meta, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.WAL().AppendBatch(pointset.MustFromSlices([][]float64{{float64(i), 1}, {2, float64(i)}})); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root.Path(), "s1")
	ckpt := filepath.Join(dir, CheckpointFileName(5))
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // inside the second of three equal records
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	live, names := root.RecoverAll(1)
	if len(live) != 0 || len(names) != 1 {
		t.Fatalf("recovered %d of %v, want the one directory refused", len(live), names)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, raw) {
		t.Fatalf("refused directory's wal.log changed: %d bytes, was %d", len(after), len(raw))
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("refused directory's checkpoint: %v", err)
	}
	if _, err := root.Create("s1", meta, ""); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("create over a refused directory: %v, want fs.ErrExist", err)
	}
	if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("create over a refused directory changed its wal.log (%v)", err)
	}
}
