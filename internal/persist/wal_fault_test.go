package persist

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"adawave/internal/pointset"
)

// flakyFS fails writes (short, ENOSPC) and truncates (EIO) while armed.
type flakyFS struct {
	FS
	failWrite, failTruncate bool
}

func (f *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.fs.failWrite {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f *flakyFile) Truncate(size int64) error {
	if f.fs.failTruncate {
		return syscall.EIO
	}
	return f.File.Truncate(size)
}

// pointCounter is a replay Target counting the points it holds.
type pointCounter int

func (c *pointCounter) AppendContext(_ context.Context, ds *pointset.Dataset) error {
	*c += pointCounter(ds.N)
	return nil
}

func (c *pointCounter) RemoveContext(_ context.Context, idx []int) error {
	*c -= pointCounter(len(idx))
	return nil
}

// TestWALFailsWhileTornRecordRemains: an append whose rollback cannot
// truncate its torn bytes away leaves the log failed — every later append
// is refused, so none can be acknowledged behind a record replay stops at —
// until a Reset clears it. Replay through the open log never reads the
// residue.
func TestWALFailsWhileTornRecordRemains(t *testing.T) {
	fsys := &flakyFS{FS: OS}
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWALFS(fsys, path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := &pointset.Dataset{Data: []float64{1, 2, 3, 4}, N: 2, D: 2}
	if _, err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	fsys.failWrite, fsys.failTruncate = true, true
	if _, err := w.AppendBatch(batch); err == nil || !strings.Contains(err.Error(), "rollback failed") {
		t.Fatalf("append over a failing disk: %v, want a rollback failure", err)
	}
	fsys.failWrite, fsys.failTruncate = false, false
	if w.Err() == nil {
		t.Fatal("log not failed after an unrolled tear")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRemove([]int{0}); err == nil {
		t.Fatal("append accepted behind a torn record")
	}
	if st2, _ := os.Stat(path); st2.Size() != st.Size() {
		t.Fatalf("refused append wrote %d bytes", st2.Size()-st.Size())
	}
	var n pointCounter
	if _, replayed, err := w.ReplayInto(0, &n); err != nil || replayed != 1 || n != 2 {
		t.Fatalf("replay of the open log: %d records, %d points, %v; want 1, 2", replayed, n, err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatalf("log still failed after reset: %v", w.Err())
	}
	seq, err := w.AppendRemove([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, path, 0); len(recs) != 1 || recs[0].Seq != seq || recs[0].Indices == nil {
		t.Fatalf("log after reset: %+v, want the one remove at seq %d", recs, seq)
	}
}
