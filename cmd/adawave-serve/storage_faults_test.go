package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/cluster"
	"adawave/internal/datasets"
	"adawave/internal/persist"
	"adawave/internal/synth"
)

// faultFS is the real filesystem with storage faults injected: each
// write-side operation of an allowed kind — "open" (for writing), "write",
// "sync", "truncate", "close" (of a written file), "rename", "mkdir" — fails
// with probability rate until budget faults have fired. A failed write is
// short: a random prefix reaches the file first, as when the disk fills
// mid-write.
type faultFS struct {
	persist.FS
	mu     sync.Mutex
	rng    *rand.Rand
	kinds  map[string]bool
	rate   float64
	budget int
	fired  map[string]int
}

func newFaultFS(seed int64, kinds ...string) *faultFS {
	f := &faultFS{FS: persist.OS, rng: rand.New(rand.NewSource(seed)), kinds: map[string]bool{}, fired: map[string]int{}}
	for _, k := range kinds {
		f.kinds[k] = true
	}
	return f
}

// arm starts injecting: each allowed operation fails with probability rate,
// at most budget times.
func (f *faultFS) arm(rate float64, budget int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rate, f.budget = rate, budget
}

func (f *faultFS) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.fired {
		n += c
	}
	return n
}

// fault decides one operation: the error to inject, or nil.
func (f *faultFS) fault(kind string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget <= 0 || !f.kinds[kind] || f.rng.Float64() >= f.rate {
		return nil
	}
	f.budget--
	f.fired[kind]++
	switch kind {
	case "sync", "truncate", "close", "rename":
		return syscall.EIO
	}
	return syscall.ENOSPC
}

func (f *faultFS) short(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n + 1)
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	writable := flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE) != 0
	if writable {
		if err := f.fault("open"); err != nil {
			return nil, &os.PathError{Op: "open", Path: name, Err: err}
		}
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, writable: writable}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.fault("rename"); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *faultFS) Mkdir(path string, perm os.FileMode) error {
	if err := f.fault("mkdir"); err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return f.FS.Mkdir(path, perm)
}

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.fault("mkdir"); err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return f.FS.MkdirAll(path, perm)
}

type faultFile struct {
	persist.File
	fs       *faultFS
	writable bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.fault("write"); err != nil {
		n, _ := f.File.Write(p[:f.fs.short(len(p))])
		return n, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.fault("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.fault("truncate"); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Close() error {
	err := f.File.Close()
	if f.writable && err == nil {
		err = f.fs.fault("close")
	}
	return err
}

// faultModel is one session as the client saw it: every row of every
// acknowledged append, minus every acknowledged removal, in session order.
type faultModel struct {
	id   string
	rows [][]float64
	off  int // next fixture row to append
	// broken: a mutation answered 500, so the server refuses mutations until
	// a checkpoint succeeds.
	broken bool
	// doubt: the refused mutation's WAL rollback failed too, so its record
	// may sit whole on disk — recovering to doubtPoints — until the next
	// successful checkpoint supersedes it.
	doubt       bool
	doubtPoints int
}

// assertSessionDirs checks the sessions root holds exactly the acknowledged
// sessions, each with at most one checkpoint and no staging file.
func assertSessionDirs(t *testing.T, root string, want []string) {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
		files, err := os.ReadDir(filepath.Join(root, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ckpts := 0
		for _, f := range files {
			if _, ok := cluster.CheckpointSeqOf(f.Name()); ok {
				ckpts++
			}
			if strings.HasSuffix(f.Name(), ".tmp") {
				t.Fatalf("session %s: staging file %s left behind", e.Name(), f.Name())
			}
		}
		if ckpts > 1 {
			t.Fatalf("session %s: %d checkpoints left behind", e.Name(), ckpts)
		}
	}
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("session dirs on disk %v, want the acknowledged %v", got, want)
	}
}

// TestStorageFaultProperty is the storage-fault contract: random
// append/remove splits of the Fig. 2 and dermatology fixtures (plus admin
// checkpoints) run against a server whose filesystem injects short writes,
// ENOSPC, fsync errors, failed closes and failed renames at random
// operations (truncates too, so a WAL rollback can fail); then the server
// restarts on a clean filesystem. Every mutation acknowledged with a 2xx
// survives, recovered labels are bit-identical to a one-shot run over the
// acknowledged point set, and unacknowledged mutations — removals included,
// which the server undoes by reloading the session from disk — and failed
// creates leave nothing on disk, nor in the session the server goes on
// serving.
func TestStorageFaultProperty(t *testing.T) {
	derm, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	dermCfg := adawave.DefaultConfig()
	dermCfg.Scale = 0
	dermCfg.Basis = adawave.HaarBasis()
	fixtures := []struct {
		name string
		pts  [][]float64
		body string // POST /v1/sessions body
		cfg  adawave.Config
	}{
		{"fig2", synth.RunningExampleSized(400, 1).Points, "", adawave.DefaultConfig()},
		{"dermatology", derm.Points, `{"scale":0,"basis":"haar"}`, dermCfg},
	}
	for fi, fx := range fixtures {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", fx.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(fi)*7919 + seed))
				dataDir := filepath.Join(t.TempDir(), "data")
				root := filepath.Join(dataDir, "sessions")
				ffs := newFaultFS(rng.Int63(), "open", "write", "sync", "truncate", "close", "rename", "mkdir")
				opts := serverOptions{workers: 1, timeout: 60 * time.Second, dataDir: dataDir, walSync: persist.SyncAlways, fs: ffs}
				srv := mustServer(t, opts)
				ts := httptest.NewServer(srv.handler())
				ffs.arm(0.08, 1<<30)

				var models []*faultModel
				acked := func() []string {
					var ids []string
					for _, m := range models {
						ids = append(ids, m.id)
					}
					return ids
				}
				for attempts := 0; len(models) < 2; attempts++ {
					if attempts > 50 {
						t.Fatal("no session creation succeeded")
					}
					code, body, _ := keyedJSON(t, ts, "POST", "/v1/sessions", "", fx.body)
					switch code {
					case http.StatusCreated:
						var created api.CreateSessionResponse
						if err := json.Unmarshal([]byte(body), &created); err != nil {
							t.Fatal(err)
						}
						models = append(models, &faultModel{id: created.ID})
					case http.StatusInternalServerError:
						assertSessionDirs(t, root, acked()) // a failed create leaves no trace
					default:
						t.Fatalf("create: %d %s", code, body)
					}
				}

				// unacked checks a refused request left nothing behind: the
				// session still serves exactly the acked rows, and a copy of its
				// directory recovers to them.
				unacked := func(m *faultModel, what string) {
					t.Helper()
					var detail api.SessionDetail
					doJSON(t, ts, "GET", "/v1/sessions/"+m.id, "", nil, http.StatusOK, &detail)
					if detail.Points != len(m.rows) {
						t.Fatalf("%s of session %s refused, yet it serves %d points, not the %d acked", what, m.id, detail.Points, len(m.rows))
					}
					dir := filepath.Join(t.TempDir(), "data")
					copyDir(t, filepath.Join(root, m.id), filepath.Join(dir, "sessions", m.id))
					if n := recoverDataDir(t, dir, what).Len(); n != len(m.rows) && !(m.doubt && n == m.doubtPoints) {
						t.Fatalf("%s of session %s refused, yet its disk state recovers %d points, not the %d acked", what, m.id, n, len(m.rows))
					}
				}
				for step := 0; step < 80; step++ {
					m := models[rng.Intn(len(models))]
					base := "/v1/sessions/" + m.id
					op := rng.Intn(10)
					switch {
					case !m.broken && op < 6 && m.off < len(fx.pts):
						b := 1 + rng.Intn((len(fx.pts)-m.off)/3+1)
						batch := fx.pts[m.off : m.off+b]
						m.off += b
						raw, _ := json.Marshal(map[string]any{"points": batch})
						switch code, body, _ := keyedJSON(t, ts, "POST", base+"/points", "", string(raw)); code {
						case http.StatusOK:
							m.rows = append(m.rows, batch...)
						case http.StatusInternalServerError:
							m.broken = true
							m.doubt, m.doubtPoints = strings.Contains(body, "rollback failed"), len(m.rows)+b
							unacked(m, "append")
						default:
							t.Fatalf("append: %d %s", code, body)
						}
					case !m.broken && op < 9 && len(m.rows) > 20:
						idx := rng.Perm(len(m.rows))[:1+rng.Intn(len(m.rows)/10+1)]
						raw, _ := json.Marshal(map[string]any{"indices": idx})
						switch code, body, _ := keyedJSON(t, ts, "DELETE", base+"/points", "", string(raw)); code {
						case http.StatusOK:
							gone := map[int]bool{}
							for _, i := range idx {
								gone[i] = true
							}
							kept := m.rows[:0:0]
							for i, row := range m.rows {
								if !gone[i] {
									kept = append(kept, row)
								}
							}
							m.rows = kept
						case http.StatusInternalServerError:
							m.broken = true
							m.doubt, m.doubtPoints = strings.Contains(body, "rollback failed"), len(m.rows)-len(idx)
							unacked(m, "remove")
						default:
							t.Fatalf("remove: %d %s", code, body)
						}
					default:
						switch code, body, _ := keyedJSON(t, ts, "POST", base+"/checkpoint", "", ""); code {
						case http.StatusOK:
							m.broken, m.doubt = false, false
						case http.StatusInternalServerError:
							unacked(m, "checkpoint")
						default:
							t.Fatalf("checkpoint: %d %s", code, body)
						}
					}
				}
				if ffs.total() == 0 {
					t.Fatal("no storage fault was injected")
				}
				t.Logf("faults injected: %v", ffs.fired)

				// Both the server that saw the faults and a restart of it on a
				// clean filesystem serve every session bit-identically to a
				// one-shot run over its acked rows.
				c, err := adawave.New(adawave.WithConfig(fx.cfg), adawave.WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				assertServed := func(ts *httptest.Server, what string) {
					for _, m := range models {
						base := "/v1/sessions/" + m.id
						var detail api.SessionDetail
						doJSON(t, ts, "GET", base, "", nil, http.StatusOK, &detail)
						if detail.Points != len(m.rows) {
							t.Fatalf("%s: session %s holds %d points, want the %d acknowledged", what, m.id, detail.Points, len(m.rows))
						}
						if len(m.rows) == 0 {
							continue
						}
						ds, err := adawave.FromSlices(m.rows)
						if err != nil {
							t.Fatal(err)
						}
						want, err := c.ClusterDatasetContext(context.Background(), ds)
						if err != nil {
							t.Fatal(err)
						}
						got, _ := getLabels(t, ts, base)
						for i := range want.Labels {
							if got[i] != want.Labels[i] {
								t.Fatalf("%s: session %s label %d: served %d, one-shot %d", what, m.id, i, got[i], want.Labels[i])
							}
						}
					}
				}
				ffs.arm(0, 0)
				for _, m := range models {
					// A crash while a record is in doubt is the documented
					// exception to "refused leaves nothing"; close the window
					// as the background checkpointer would.
					if m.doubt {
						doJSON(t, ts, "POST", "/v1/sessions/"+m.id+"/checkpoint", "", nil, http.StatusOK, nil)
					}
				}
				assertServed(ts, "live")
				ts.Close()
				srv.Close()
				assertSessionDirs(t, root, acked())

				opts.fs = nil
				srv2 := mustServer(t, opts)
				ts2 := httptest.NewServer(srv2.handler())
				defer ts2.Close()
				assertServed(ts2, "recovered")
			})
		}
	}
}

// TestFollowerProvisionUnderFaults: fsync, truncate, close and rename faults
// hit a follower while it writes the checkpoint it fetched from the primary,
// its own local checkpoints (one every two frames) and its journal. The replica
// must converge anyway — re-syncing wherever a write failed — leave no
// stray checkpoint or staging file, and after a promote serve the primary's
// labels bit-identically.
func TestFollowerProvisionUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			srvP := mustServer(t, serverOptions{
				workers: 1, timeout: 60 * time.Second,
				dataDir: filepath.Join(t.TempDir(), "data"),
				walSync: persist.SyncNever, role: rolePrimary,
			})
			primary := httptest.NewServer(srvP.handler())
			t.Cleanup(primary.Close) // after the follower's own cleanup stops its stream
			var created api.CreateSessionResponse
			doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
			base := "/v1/sessions/" + created.ID
			data := adawave.SyntheticEvaluation(120, 0.5, seed)
			post := func(pts [][]float64) {
				raw, err := json.Marshal(map[string]any{"points": pts})
				if err != nil {
					t.Fatal(err)
				}
				doJSON(t, primary, "POST", base+"/points", "application/json", raw, http.StatusOK, nil)
			}
			// A primary checkpoint first, so provisioning fetches one.
			post(data.Points[:300])
			post(data.Points[300:600])
			doJSON(t, primary, "POST", base+"/checkpoint", "", nil, http.StatusOK, nil)

			// Faults while the follower provisions (directory, fetched
			// checkpoint), then again while it journals frames and folds them
			// into local checkpoints.
			ffs := newFaultFS(seed, "sync", "truncate", "close", "rename")
			ffs.arm(0.3, 4)
			dataDir := filepath.Join(t.TempDir(), "data")
			srvF := mustServer(t, serverOptions{
				workers: 1, timeout: 60 * time.Second, dataDir: dataDir,
				walSync: persist.SyncAlways, role: roleFollower, followerOf: primary.URL,
				replicaRetry:           25 * time.Millisecond,
				replicaCheckpointEvery: 2, fs: ffs,
			})
			follower := httptest.NewServer(srvF.handler())
			defer follower.Close()
			waitCaughtUp(t, follower, created.ID, primaryWALSeq(t, primary, created.ID))
			provisionFaults := ffs.total()
			ffs.arm(0.3, 6)
			for off := 600; off < len(data.Points); off += 100 {
				post(data.Points[off:min(off+100, len(data.Points))])
			}
			waitCaughtUp(t, follower, created.ID, primaryWALSeq(t, primary, created.ID))
			if provisionFaults == 0 || ffs.total() == provisionFaults {
				t.Fatalf("faults injected: %d while provisioning, %d after", provisionFaults, ffs.total()-provisionFaults)
			}
			t.Logf("faults injected: %v (%d while provisioning)", ffs.fired, provisionFaults)
			wantLabels, wantClusters := getLabels(t, primary, base)
			var prom api.PromoteResponse
			doJSON(t, follower, "POST", "/v1/replication/promote", "", nil, http.StatusOK, &prom)
			if prom.Promoted != 1 {
				t.Fatalf("promote: %+v", prom)
			}
			// The promote stopped the replica, so no local checkpoint is
			// still staging or sweeping while the directory is inspected.
			assertSessionDirs(t, filepath.Join(dataDir, "sessions"), []string{created.ID})
			gotLabels, gotClusters := getLabels(t, follower, base)
			if gotClusters != wantClusters || len(gotLabels) != len(wantLabels) {
				t.Fatalf("promoted: %d clusters / %d labels, want %d / %d", gotClusters, len(gotLabels), wantClusters, len(wantLabels))
			}
			for i := range wantLabels {
				if gotLabels[i] != wantLabels[i] {
					t.Fatalf("label %d: got %d, want %d", i, gotLabels[i], wantLabels[i])
				}
			}
		})
	}
}

// TestFollowerRestartKeepsDefaultTenant: a default-tenant session recovered
// by a restarted follower still belongs to tenant "default" — the follower
// lists it under that tenant, and a promote bills its points to it rather
// than to a phantom empty tenant.
func TestFollowerRestartKeepsDefaultTenant(t *testing.T) {
	srvP := mustServer(t, serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: rolePrimary,
	})
	primary := httptest.NewServer(srvP.handler())
	t.Cleanup(primary.Close) // after the follower's own cleanup stops its stream
	var created api.CreateSessionResponse
	doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	doJSON(t, primary, "POST", "/v1/sessions/"+created.ID+"/points", "application/json",
		[]byte(`{"points":[[1,2],[3,4],[5,6],[7,8]]}`), http.StatusOK, nil)

	opts := serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: roleFollower, followerOf: primary.URL,
		replicaRetry: 25 * time.Millisecond,
	}
	srvF := mustServer(t, opts)
	follower := httptest.NewServer(srvF.handler())
	waitCaughtUp(t, follower, created.ID, 1)
	follower.Close()
	srvF.Close()

	srvF = mustServer(t, opts)
	follower = httptest.NewServer(srvF.handler())
	defer follower.Close()
	waitCaughtUp(t, follower, created.ID, 1)
	var listed api.ListSessionsResponse
	doJSON(t, follower, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
	if len(listed.Sessions) != 1 || listed.Sessions[0].Tenant != "default" {
		t.Fatalf("restarted follower lists %+v, want one session of tenant \"default\"", listed.Sessions)
	}

	primary.CloseClientConnections()
	primary.Close()
	var prom api.PromoteResponse
	doJSON(t, follower, "POST", "/v1/replication/promote", "", nil, http.StatusOK, &prom)
	if prom.Promoted != 1 {
		t.Fatalf("promote: %+v", prom)
	}
	var usage api.TenantUsage
	doJSON(t, follower, "GET", "/v1/tenants/default/usage", "", nil, http.StatusOK, &usage)
	if usage.Points != 4 || usage.Sessions != 1 {
		t.Fatalf("tenant default after promote: %+v, want 4 points in 1 session", usage)
	}
}

// TestPinnedCreateRaceKeepsWinner: creates racing for one pinned session id
// on a faulty disk. At most one wins; a loser — refused as a conflict, or
// failing on its own write — never removes the winner's directory, so the
// winner's session and the points acknowledged to it survive a restart, and
// an id nobody won leaves no directory behind.
func TestPinnedCreateRaceKeepsWinner(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	ffs := newFaultFS(7, "write", "sync", "close", "rename")
	opts := serverOptions{workers: 1, timeout: 60 * time.Second, dataDir: dataDir, walSync: persist.SyncAlways, fs: ffs}
	srv := mustServer(t, opts)
	ts := httptest.NewServer(srv.handler())
	won := map[string]bool{}
	for round := 0; round < 20; round++ {
		id := fmt.Sprintf("race%d", round)
		ffs.arm(0.05, 1<<30)
		codes := make(chan int, 6)
		var wg sync.WaitGroup
		for i := 0; i < cap(codes); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequest("POST", ts.URL+"/v1/sessions", nil)
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(api.HeaderSessionID, id)
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}()
		}
		wg.Wait()
		close(codes)
		ffs.arm(0, 0)
		created := 0
		for code := range codes {
			switch code {
			case http.StatusCreated:
				created++
			case http.StatusConflict, http.StatusInternalServerError:
			default:
				t.Fatalf("%s: create answered %d", id, code)
			}
		}
		if created > 1 {
			t.Fatalf("%s: %d creates won", id, created)
		}
		if created == 1 {
			won[id] = true
			doJSON(t, ts, "POST", "/v1/sessions/"+id+"/points", "application/json",
				[]byte(`{"points":[[1,2],[3,4],[5,6]]}`), http.StatusOK, nil)
		}
	}
	if ffs.total() == 0 || len(won) == 0 {
		t.Fatalf("faults %v, winners %v: the race was not exercised", ffs.fired, won)
	}
	ts.Close()
	srv.Close()
	var ids []string
	for id := range won {
		ids = append(ids, id)
	}
	assertSessionDirs(t, filepath.Join(dataDir, "sessions"), ids)

	opts.fs = nil
	srv2 := mustServer(t, opts)
	ts2 := httptest.NewServer(srv2.handler())
	defer ts2.Close()
	for id := range won {
		var detail api.SessionDetail
		doJSON(t, ts2, "GET", "/v1/sessions/"+id, "", nil, http.StatusOK, &detail)
		if detail.Points != 3 {
			t.Fatalf("session %s recovered %d points, want the 3 acknowledged", id, detail.Points)
		}
	}
}
