package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/persist"
	"adawave/internal/pointset"
)

// feedPrimary is a minimal primary for ReplicaSet tests: the versioned
// session list, empty checkpoints and the WAL frame stream, over session
// directories of its own root.
type feedPrimary struct {
	root    *SessionRoot
	ver     *ListVersion
	done    chan struct{}
	waiting atomic.Int64 // list requests that named a version

	mu       sync.Mutex
	sessions map[string]*SessionDir
}

func newFeedPrimary(t *testing.T) (*feedPrimary, *httptest.Server) {
	t.Helper()
	root, err := OpenSessionRoot(persist.OS, t.TempDir(), persist.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	p := &feedPrimary{root: root, ver: NewListVersion(), done: make(chan struct{}), sessions: map[string]*SessionDir{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/sessions", p.list)
	mux.HandleFunc("GET /v1/replication/sessions/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.HeaderCheckpointSeq, "0")
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/replication/sessions/{id}/wal", p.stream)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		close(p.done)
		ts.Close()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, d := range p.sessions {
			d.WAL().Close()
		}
	})
	return p, ts
}

func (p *feedPrimary) list(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if v := q.Get(api.QueryListVersion); v != "" {
		p.waiting.Add(1)
		held, _ := strconv.ParseUint(v, 10, 64)
		wait, _ := time.ParseDuration(q.Get(api.QueryListWait))
		p.ver.Wait(r.Context(), held, wait, p.done)
	}
	out := api.ReplicationSessionsResponse{Role: "primary", Version: p.ver.Load(), Sessions: []api.ReplicationSessionInfo{}}
	p.mu.Lock()
	for id, d := range p.sessions {
		out.Sessions = append(out.Sessions, api.ReplicationSessionInfo{ID: id, Config: d.Meta(), WALSeq: d.WAL().Seq()})
	}
	p.mu.Unlock()
	sort.Slice(out.Sessions, func(a, b int) bool { return out.Sessions[a].ID < out.Sessions[b].ID })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (p *feedPrimary) stream(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	d := p.sessions[r.PathValue("id")]
	p.mu.Unlock()
	if d == nil {
		http.NotFound(w, r)
		return
	}
	from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	wal := d.WAL()
	tail, err := wal.NewTailer(from)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer tail.Close()
	w.Header().Set(api.HeaderWALSeq, strconv.FormatUint(wal.Seq(), 10))
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	for {
		changed := wal.Changed()
		frame, _, err := tail.Next()
		switch {
		case err == nil:
			if _, err := w.Write(frame); err != nil {
				return
			}
		case errors.Is(err, persist.ErrNoFrame):
			if rc.Flush() != nil {
				return
			}
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			case <-p.done:
				return
			}
		default:
			return
		}
	}
}

func (p *feedPrimary) create(t *testing.T, id string) *SessionDir {
	t.Helper()
	d, err := p.root.Create(id, core.ConfigFingerprint(adawave.DefaultConfig()), "default")
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.sessions[id] = d
	p.mu.Unlock()
	p.ver.Bump()
	return d
}

func (p *feedPrimary) drop(t *testing.T, id string) {
	t.Helper()
	p.mu.Lock()
	d := p.sessions[id]
	delete(p.sessions, id)
	p.mu.Unlock()
	p.ver.Bump()
	if err := d.Drop(); err != nil {
		t.Fatal(err)
	}
}

// eventually polls cond for up to 10s — far below the hour-long poll and
// retry periods of the replica set under test, so only a wake-up passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicaSetLearnsWithoutPolling: with Poll and Retry set to an hour, a
// follower still sees a session created after Start, the session's first
// append and its deletion (the replica quarantined) as they happen on the
// primary: the waiting session list answers when the list version moves,
// and the WAL stream when the log does.
func TestReplicaSetLearnsWithoutPolling(t *testing.T) {
	p, ts := newFeedPrimary(t)
	root, err := OpenSessionRoot(persist.OS, t.TempDir(), persist.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewReplicaSet(ReplicaOptions{
		Primary: ts.URL, Sessions: root, Workers: 1,
		Poll: time.Hour, Retry: time.Hour,
	})
	rs.Start()
	defer rs.Close()
	eventually(t, "a waiting list request", func() bool { return p.waiting.Load() > 0 })

	d := p.create(t, "s1")
	eventually(t, "the session to be replicated", func() bool {
		_, _, ok := rs.Lookup("s1")
		return ok
	})
	batch := &pointset.Dataset{Data: []float64{1, 2, 3, 4, 5, 6}, N: 3, D: 2}
	if _, err := d.WAL().AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the first append to be applied", func() bool {
		st := rs.Status()["s1"]
		sess, _, ok := rs.Lookup("s1")
		return ok && st.AppliedSeq == 1 && sess.Len() == 3
	})

	p.drop(t, "s1")
	quarantined := filepath.Join(root.Path(), ".quarantine", "s1")
	eventually(t, "the deleted session to be quarantined", func() bool {
		_, err := os.Stat(filepath.Join(quarantined, "wal.log"))
		return len(rs.IDs()) == 0 && err == nil
	})
	if _, err := os.Stat(filepath.Join(root.Path(), "s1")); !os.IsNotExist(err) {
		t.Fatalf("dropped replica's directory still live (err=%v)", err)
	}
}
