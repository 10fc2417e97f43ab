package persist

import (
	"context"
	"errors"
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

// eioFS fails one Read of a file with EIO once the file's read offset
// reaches failAt, then reads normally.
type eioFS struct {
	FS
	failAt int64
	fired  bool
}

func (f *eioFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &eioFile{File: file, fs: f}, nil
}

type eioFile struct {
	File
	fs  *eioFS
	off int64
}

func (f *eioFile) Read(p []byte) (int, error) {
	if !f.fs.fired {
		if f.off >= f.fs.failAt {
			f.fs.fired = true
			return 0, syscall.EIO
		}
		p = p[:min(int64(len(p)), f.fs.failAt-f.off)]
	}
	n, err := f.File.Read(p)
	f.off += int64(n)
	return n, err
}

func (f *eioFile) Seek(offset int64, whence int) (int64, error) {
	off, err := f.File.Seek(offset, whence)
	if err == nil {
		f.off = off
	}
	return off, err
}

// TestOpenWALReadErrorKeepsLog: a read that fails inside the log's size
// is an I/O error, not a torn tail. OpenWAL must return it and leave the
// file whole — truncating there would drop acknowledged records — and the
// next open, whose reads succeed, recovers every record.
func TestOpenWALReadErrorKeepsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	batch := &pointset.Dataset{Data: make([]float64, 2*200), N: 200, D: 2}
	for i := range 3 {
		batch.Data[0] = float64(i)
		if _, err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= 4096 {
		t.Fatalf("log of %d bytes: the failing read would not fall inside it", st.Size())
	}
	fsys := &eioFS{FS: OS, failAt: 4096}
	if w, err := OpenWALFS(fsys, path, SyncAlways); err == nil || !errors.Is(err, syscall.EIO) {
		if w != nil {
			w.Close()
		}
		t.Fatalf("open over a failing read: %v, want EIO", err)
	}
	if !fsys.fired {
		t.Fatal("the read fault never fired")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != st.Size() {
		t.Fatalf("log is %d bytes after the failed open, was %d", after.Size(), st.Size())
	}
	w, err = OpenWAL(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Records() != 3 || w.Seq() != 3 {
		t.Fatalf("reopened log holds %d records up to seq %d, want 3 and 3", w.Records(), w.Seq())
	}
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
