package persist

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"adawave/internal/pointset"
)

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestWALChangedWakes: every record that lands — AppendBatch, AppendRemove,
// AppendFrame — and every Reset closes the channel Changed handed out
// before it, and the next Changed is a fresh, open one. An append the disk
// refused, and rolled back, wakes nobody and leaves Seq where it was.
func TestWALChangedWakes(t *testing.T) {
	fsys := &flakyFS{FS: OS}
	w, err := OpenWALFS(fsys, filepath.Join(t.TempDir(), "wal.log"), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := &pointset.Dataset{Data: []float64{1, 2}, N: 1, D: 2}
	steps := []struct {
		name string
		do   func() error
	}{
		{"append batch", func() error { _, err := w.AppendBatch(batch); return err }},
		{"append remove", func() error { _, err := w.AppendRemove([]int{0}); return err }},
		{"reset", w.Reset},
	}
	for _, st := range steps {
		ch := w.Changed()
		if closed(ch) {
			t.Fatalf("%s: channel closed before the change", st.name)
		}
		if err := st.do(); err != nil {
			t.Fatal(err)
		}
		if !closed(ch) {
			t.Fatalf("%s: waiter not woken", st.name)
		}
		if closed(w.Changed()) {
			t.Fatalf("%s: the next channel is already closed", st.name)
		}
	}

	// A follower's log wakes on AppendFrame: journal the primary's frames.
	fw, err := OpenWAL(filepath.Join(t.TempDir(), "follower.log"), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	src, _ := walWithRecords(t, t.TempDir(), 2)
	defer src.Close()
	tail, err := src.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for i := 0; i < 2; i++ {
		frame, _, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		ch := fw.Changed()
		if _, err := appendFrame(fw, frame); err != nil {
			t.Fatal(err)
		}
		if !closed(ch) {
			t.Fatalf("AppendFrame %d: waiter not woken", i+1)
		}
	}

	// A rolled-back append moves nothing.
	seq, ch := w.Seq(), w.Changed()
	fsys.failWrite = true
	if _, err := w.AppendBatch(batch); err == nil {
		t.Fatal("append over a failing disk succeeded")
	}
	fsys.failWrite = false
	if w.Err() != nil {
		t.Fatalf("rollback left the log failed: %v", w.Err())
	}
	if closed(ch) {
		t.Fatal("a rolled-back append woke a waiter")
	}
	if w.Seq() != seq {
		t.Fatalf("a rolled-back append moved Seq %d → %d", seq, w.Seq())
	}
	if got, err := w.AppendRemove([]int{0}); err != nil || got != seq+1 || !closed(ch) {
		t.Fatalf("append after the rollback: seq %d, err %v, woken %v; want seq %d, woken", got, err, closed(ch), seq+1)
	}
}

// TestWALTailerNeverStalls: one writer makes 10k appends while a tailer
// reads them, waiting on Changed (taken before each Next) whenever it finds
// nothing new. A lost wake-up leaves the tailer waiting with frames
// unread, which the generous per-wait bound turns into a failure; a run
// under -race with -count also checks that the notification is race-clean.
func TestWALTailerNeverStalls(t *testing.T) {
	const n = 10_000
	w, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tail, err := w.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	werr := make(chan error, 1)
	go func() {
		batch := &pointset.Dataset{Data: []float64{1, 2}, N: 1, D: 2}
		for i := 0; i < n; i++ {
			if _, err := w.AppendBatch(batch); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	for tail.LastSeq() < n {
		changed := w.Changed()
		_, _, err := tail.Next()
		switch {
		case err == nil:
		case errors.Is(err, ErrNoFrame):
			select {
			case <-changed:
			case <-time.After(10 * time.Second):
				t.Fatalf("tailer stalled at seq %d with the log at %d", tail.LastSeq(), w.Seq())
			}
		default:
			t.Fatal(err)
		}
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}

// TestTailerResume: after a checkpoint's Reset, a Tailer that had yielded
// every frame the reset took resumes at the front of the truncated log and
// yields the next sequence; one that had not is refused with ErrWALReset,
// since the frames in between now live only in the checkpoint.
func TestTailerResume(t *testing.T) {
	w, _ := walWithRecords(t, t.TempDir(), 3)
	defer w.Close()
	caughtUp, err := w.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer caughtUp.Close()
	behind, err := w.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer behind.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := caughtUp.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, seq, err := behind.Next(); err != nil || seq != 1 {
		t.Fatalf("behind: seq %d, err %v", seq, err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRemove([]int{0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := caughtUp.Next(); !errors.Is(err, ErrWALReset) {
		t.Fatalf("caught-up tailer across reset: %v, want ErrWALReset", err)
	}
	if err := caughtUp.Resume(); err != nil {
		t.Fatalf("resume of a caught-up tailer: %v", err)
	}
	if _, seq, err := caughtUp.Next(); err != nil || seq != 4 {
		t.Fatalf("after resume: seq %d, err %v, want 4", seq, err)
	}
	if _, _, err := caughtUp.Next(); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("after the last frame: %v, want ErrNoFrame", err)
	}
	if _, _, err := behind.Next(); !errors.Is(err, ErrWALReset) {
		t.Fatalf("lagging tailer across reset: %v, want ErrWALReset", err)
	}
	if err := behind.Resume(); !errors.Is(err, ErrWALReset) {
		t.Fatalf("resume of a lagging tailer: %v, want ErrWALReset", err)
	}
}
