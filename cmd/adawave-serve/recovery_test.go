package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/cluster"
	"adawave/internal/core"
	"adawave/internal/datasets"
	"adawave/internal/grid"
	"adawave/internal/persist"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// TestWriteReadErrClassification: the taxonomy-driven read-error mapping —
// empty session is the caller's sequencing (409 no_points), input-shaped
// failures the client can fix are 422 invalid_input, a pipeline aborted by
// the client's own disconnect is the 499 client-abort convention (never a
// 5xx that would page an operator for a hang-up), an expired request
// deadline is 504, a checkpoint/config divergence is 409 config_mismatch,
// and everything else is an internal fault that must answer 500 instead of
// blaming the request.
func TestWriteReadErrClassification(t *testing.T) {
	canceled := func() error {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return grid.CtxErr(ctx)
	}()
	expired := func() error {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		return grid.CtxErr(ctx)
	}()
	cases := []struct {
		name     string
		err      error
		want     int
		wantCode string
	}{
		{"no-points", grid.ErrNoPoints, http.StatusConflict, api.CodeNoPoints},
		{"wrapped-no-points", fmt.Errorf("read: %w", grid.ErrNoPoints), http.StatusConflict, api.CodeNoPoints},
		{"invalid-input", fmt.Errorf("grid: point 3 has non-finite coordinate NaN in dimension 0: %w", grid.ErrInvalidInput), http.StatusUnprocessableEntity, api.CodeInvalidInput},
		{"wrapped-invalid-input", fmt.Errorf("engine: %w", fmt.Errorf("transform: %w", grid.ErrInvalidInput)), http.StatusUnprocessableEntity, api.CodeInvalidInput},
		{"canceled", canceled, api.StatusClientClosedRequest, api.CodeCanceled},
		{"wrapped-canceled", fmt.Errorf("labels: %w", canceled), api.StatusClientClosedRequest, api.CodeCanceled},
		{"raw-context-canceled", context.Canceled, api.StatusClientClosedRequest, api.CodeCanceled},
		{"deadline", expired, http.StatusGatewayTimeout, api.CodeDeadlineExceeded},
		{"wrapped-deadline", fmt.Errorf("labels: %w", expired), http.StatusGatewayTimeout, api.CodeDeadlineExceeded},
		{"raw-context-deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, api.CodeDeadlineExceeded},
		{"config-mismatch", fmt.Errorf("restore: %w", persist.ErrConfigMismatch), http.StatusConflict, api.CodeConfigMismatch},
		{"internal", errors.New("grid: invariant broken"), http.StatusInternalServerError, api.CodeInternal},
		{"io-fault", io.ErrUnexpectedEOF, http.StatusInternalServerError, api.CodeInternal},
	}
	srv := &server{metrics: newServerMetrics()}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", "/v1/sessions/s1/labels", nil)
			srv.writeReadErr(rec, req, tc.err)
			if rec.Code != tc.want {
				t.Fatalf("status: got %d, want %d", rec.Code, tc.want)
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope: %v (%s)", err, rec.Body.Bytes())
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code: got %q, want %q", env.Error.Code, tc.wantCode)
			}
		})
	}
}

// TestServeNonFiniteDataIs422: the full-path rendering — a NaN smuggled in
// through CSV (ParseFloat accepts "NaN") fails the read with 422, because
// removing the bad point is the client's fix.
func TestServeNonFiniteDataIs422(t *testing.T) {
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	doJSON(t, ts, "POST", base+"/points", "text/csv", []byte("1,2\nNaN,0.5\n"), http.StatusOK, nil)
	doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusUnprocessableEntity, nil)
}

// copyDir snapshots a session directory — the on-disk state a crash at this
// instant would leave behind.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mutation is one recorded step of a random append/remove sequence.
type mutation struct {
	batch   *pointset.Dataset
	indices []int
}

// applyAll replays a mutation prefix into a fresh session — the
// never-crashed reference.
func applyAll(t *testing.T, cfg adawave.Config, muts []mutation) *adawave.Session {
	t.Helper()
	c, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession()
	for _, m := range muts {
		if m.batch != nil {
			err = sess.AppendContext(context.Background(), m.batch)
		} else {
			err = sess.RemoveContext(context.Background(), append([]int(nil), m.indices...))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func assertLabelsEqual(t *testing.T, want, got *adawave.Session, ctx string) {
	t.Helper()
	if want.Len() == 0 {
		if got.Len() != 0 {
			t.Fatalf("%s: recovered %d points, want 0", ctx, got.Len())
		}
		return
	}
	wl, err := want.LabelsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gl, err := got.LabelsContext(context.Background())
	if err != nil {
		t.Fatalf("%s: recovered labels: %v", ctx, err)
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d labels, want %d", ctx, len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Fatalf("%s: label %d: got %d, want %d", ctx, i, gl[i], wl[i])
		}
	}
}

// TestCrashRecoveryProperty is the crash-point sweep: random append/remove
// splits of the Fig. 2 / Fig. 7 / dermatology fixtures are journaled through
// the production store (with a checkpoint dropped mid-sequence), the on-disk
// state is snapshotted after every WAL record — plus a variant torn mid-way
// through the final record — and every snapshot must recover to labels
// bit-identical to a never-crashed session that applied exactly the
// mutations the snapshot's log holds. Runs under -race in CI.
func TestCrashRecoveryProperty(t *testing.T) {
	derm, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	dermCfg := adawave.DefaultConfig()
	dermCfg.Scale = 0 // automatic scale: changes as the stream grows
	dermCfg.Basis = adawave.HaarBasis()
	fixtures := []struct {
		name string
		pts  [][]float64
		cfg  adawave.Config
	}{
		{"fig2", synth.RunningExampleSized(400, 1).Points, adawave.DefaultConfig()},
		{"fig7", synth.Evaluation(300, 0.8, 1).Points, adawave.DefaultConfig()},
		{"dermatology", derm.Points, dermCfg},
	}
	for fi, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(fi)*131 + 9))
			ds := pointset.MustFromSlices(fx.pts)
			root := t.TempDir()
			disk, err := cluster.OpenSessionRoot(persist.OS, filepath.Join(root, "data"), persist.SyncNever)
			if err != nil {
				t.Fatal(err)
			}
			d, err := disk.Create("s1", core.ConfigFingerprint(mustConfig(t, fx.cfg)), "")
			if err != nil {
				t.Fatal(err)
			}
			files := &sessionFiles{SessionDir: d}
			c, err := adawave.New(adawave.WithConfig(fx.cfg), adawave.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			sess := c.NewSession()
			ss := newServeSession("s1", "default", sess, files, 1)
			live := filepath.Join(disk.Path(), "s1")

			// Build the random mutation sequence, journaling each step with
			// the production helpers and snapshotting the directory after
			// every record (each copy is the one session of its own data
			// dir). One random step also takes a full checkpoint, so later
			// snapshots exercise checkpoint + WAL-tail recovery.
			var muts []mutation
			var crashDirs []string
			var walSizes []int64
			snapshot := func() {
				if err := files.WAL().Sync(); err != nil {
					t.Fatal(err)
				}
				dir := filepath.Join(root, fmt.Sprintf("crash-%03d", len(crashDirs)))
				copyDir(t, live, filepath.Join(dir, "sessions", "s1"))
				crashDirs = append(crashDirs, dir)
				walSizes = append(walSizes, files.WAL().Size())
			}
			snapshot() // crash before any mutation
			ckptAt := 1 + rng.Intn(6)
			off := 0
			for off < ds.N {
				b := 1 + rng.Intn(ds.N-off)
				if rng.Intn(3) > 0 && ds.N-off > 10 {
					b = 1 + rng.Intn((ds.N-off)/3+1)
				}
				batch := &pointset.Dataset{Data: ds.Data[off*ds.D : (off+b)*ds.D], N: b, D: ds.D}
				if err := sess.AppendContext(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
				if err := ss.journalAppend(batch); err != nil {
					t.Fatal(err)
				}
				muts = append(muts, mutation{batch: batch})
				off += b
				snapshot()
				if rng.Intn(2) == 0 && sess.Len() > 20 {
					nrm := 1 + rng.Intn(sess.Len()/10+1)
					idx := rng.Perm(sess.Len())[:nrm]
					if err := sess.RemoveContext(context.Background(), append([]int(nil), idx...)); err != nil {
						t.Fatal(err)
					}
					if err := ss.journalRemove(idx); err != nil {
						t.Fatal(err)
					}
					muts = append(muts, mutation{indices: idx})
					snapshot()
				}
				if len(muts) == ckptAt {
					if _, err := ss.checkpointLocked(); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Every crash point must recover to the exact mutation prefix.
			for i, dir := range crashDirs {
				recovered := recoverDataDir(t, dir, fmt.Sprintf("crash %d", i))
				want := applyAll(t, fx.cfg, muts[:i])
				assertLabelsEqual(t, want, recovered, fmt.Sprintf("crash %d", i))
			}

			// Mid-record truncation: tear the last snapshot's final record at
			// a few interior offsets; recovery must fall back to the previous
			// record's state.
			last := len(crashDirs) - 1
			if last > 0 && walSizes[last] > walSizes[last-1]+2 {
				full, err := os.ReadFile(filepath.Join(crashDirs[last], "sessions", "s1", "wal.log"))
				if err != nil {
					t.Fatal(err)
				}
				prev, end := walSizes[last-1], walSizes[last]
				for _, cut := range []int64{prev + 1, (prev + end) / 2, end - 1} {
					dir := filepath.Join(root, fmt.Sprintf("torn-%d", cut))
					copyDir(t, filepath.Join(crashDirs[last], "sessions", "s1"), filepath.Join(dir, "sessions", "s1"))
					if err := os.WriteFile(filepath.Join(dir, "sessions", "s1", "wal.log"), full[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					recovered := recoverDataDir(t, dir, fmt.Sprintf("torn at %d", cut))
					want := applyAll(t, fx.cfg, muts[:last-1])
					assertLabelsEqual(t, want, recovered, fmt.Sprintf("torn at %d", cut))
				}
			}
		})
	}
}

// recoverDataDir recovers the one session of a data dir through the
// production boot path and closes its WAL.
func recoverDataDir(t *testing.T, dataDir, what string) *adawave.Session {
	t.Helper()
	disk, err := cluster.OpenSessionRoot(persist.OS, dataDir, persist.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	live, names := disk.RecoverAll(1)
	if len(live) != 1 {
		t.Fatalf("%s: recovered %d of sessions %v (see log)", what, len(live), names)
	}
	live[0].Dir.WAL().Close()
	return live[0].Session
}

// mustConfig validates through the facade so the fingerprint sees the same
// resolved configuration a served session would.
func mustConfig(t *testing.T, cfg adawave.Config) adawave.Config {
	t.Helper()
	c, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return c.Config()
}

// TestServeKillRestartE2E is the acceptance gate: an adawave-serve session
// holding ≥ 50k points, mutated mid-flight (appends, removals, a mid-stream
// admin checkpoint), dies without any graceful shutdown; a new process over
// the same data dir must recover it with labels bit-identical to the
// uninterrupted server's.
func TestServeKillRestartE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-point e2e")
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	opts := serverOptions{workers: 2, timeout: 60 * time.Second, dataDir: dataDir, walSync: persist.SyncAlways}
	srv1 := mustServer(t, opts)
	ts1 := httptest.NewServer(srv1.handler())
	defer ts1.Close()

	data := adawave.SyntheticEvaluation(5200, 0.5, 42) // 52k points
	pts := data.Points
	if len(pts) < 50_000 {
		t.Fatalf("fixture has %d points, want ≥ 50k", len(pts))
	}
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts1, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID

	post := func(ts *httptest.Server, batch [][]float64) {
		body, err := json.Marshal(map[string]any{"points": batch})
		if err != nil {
			t.Fatal(err)
		}
		doJSON(t, ts, "POST", base+"/points", "application/json", body, http.StatusOK, nil)
	}
	// First 30k, then an admin checkpoint, then the rest + removals in the
	// WAL tail — recovery must compose both.
	post(ts1, pts[:30_000])
	var ckpt struct {
		Seq    uint64 `json:"seq"`
		Points int    `json:"points"`
	}
	doJSON(t, ts1, "POST", base+"/checkpoint", "", nil, http.StatusOK, &ckpt)
	if ckpt.Points != 30_000 {
		t.Fatalf("checkpoint points: %d", ckpt.Points)
	}
	post(ts1, pts[30_000:45_000])
	rm := map[string]any{"indices": []int{0, 17, 300, 29_999, 44_000}}
	rmBody, _ := json.Marshal(rm)
	doJSON(t, ts1, "DELETE", base+"/points", "application/json", rmBody, http.StatusOK, nil)
	post(ts1, pts[45_000:])

	var want struct {
		Labels      []int `json:"labels"`
		NumClusters int   `json:"numClusters"`
	}
	doJSON(t, ts1, "GET", base+"/labels", "", nil, http.StatusOK, &want)
	if len(want.Labels) != len(pts)-5 {
		t.Fatalf("uninterrupted labels: %d, want %d", len(want.Labels), len(pts)-5)
	}

	// Kill: no graceful close, no final checkpoint — the new server sees
	// exactly what a crashed process left on disk.
	srv2 := mustServer(t, opts)
	ts2 := httptest.NewServer(srv2.handler())
	defer ts2.Close()

	var listed struct {
		Sessions []struct {
			ID     string `json:"id"`
			Points int    `json:"points"`
		} `json:"sessions"`
	}
	doJSON(t, ts2, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
	if len(listed.Sessions) != 1 || listed.Sessions[0].ID != created.ID || listed.Sessions[0].Points != len(pts)-5 {
		t.Fatalf("recovered registry: %+v", listed.Sessions)
	}
	var got struct {
		Labels      []int `json:"labels"`
		NumClusters int   `json:"numClusters"`
	}
	doJSON(t, ts2, "GET", base+"/labels", "", nil, http.StatusOK, &got)
	if got.NumClusters != want.NumClusters || len(got.Labels) != len(want.Labels) {
		t.Fatalf("recovered: %d clusters / %d labels, want %d / %d", got.NumClusters, len(got.Labels), want.NumClusters, len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	// The recovered session is warm and writable: session ids must not
	// collide with the recovered one, and further mutations keep serving.
	doJSON(t, ts2, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	if created.ID == listed.Sessions[0].ID {
		t.Fatalf("new session id %s collides with the recovered one", created.ID)
	}
	post(ts2, pts[:10])
}

// TestServeCheckpointEndpoint covers the admin surface: disabled without
// -data-dir, 404 on unknown sessions, and a WAL-truncating checkpoint of an
// empty and a populated session.
func TestServeCheckpointEndpoint(t *testing.T) {
	// Without persistence the endpoint is a 409, not a crash.
	srv := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.handler())
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	doJSON(t, ts, "POST", "/v1/sessions/"+created.ID+"/checkpoint", "", nil, http.StatusConflict, nil)
	ts.Close()

	dataDir := filepath.Join(t.TempDir(), "data")
	srv = mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second, dataDir: dataDir, walSync: persist.SyncAlways})
	ts = httptest.NewServer(srv.handler())
	defer ts.Close()
	doJSON(t, ts, "POST", "/v1/sessions/s404/checkpoint", "", nil, http.StatusNotFound, nil)
	doJSON(t, ts, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	// Checkpointing an empty session works (and is restorable).
	doJSON(t, ts, "POST", base+"/checkpoint", "", nil, http.StatusOK, nil)
	doJSON(t, ts, "POST", base+"/points", "application/json", []byte(`{"points":[[1,2],[3,4],[1,2]]}`), http.StatusOK, nil)
	var ck struct {
		Seq    uint64 `json:"seq"`
		Points int    `json:"points"`
	}
	doJSON(t, ts, "POST", base+"/checkpoint", "", nil, http.StatusOK, &ck)
	if ck.Points != 3 || ck.Seq == 0 {
		t.Fatalf("checkpoint response: %+v", ck)
	}
	// The WAL was truncated; the checkpoint alone must carry the state.
	var files []string
	entries, err := os.ReadDir(filepath.Join(dataDir, "sessions", created.ID))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		files = append(files, e.Name())
	}
	found := false
	for _, f := range files {
		if _, ok := cluster.CheckpointSeqOf(f); ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("no checkpoint file in %v", files)
	}
	srv.Close()

	srv2 := mustServer(t, serverOptions{workers: 1, timeout: 30 * time.Second, dataDir: dataDir, walSync: persist.SyncAlways})
	ts2 := httptest.NewServer(srv2.handler())
	defer ts2.Close()
	var got struct {
		Labels []int `json:"labels"`
	}
	doJSON(t, ts2, "GET", base+"/labels", "", nil, http.StatusOK, &got)
	if len(got.Labels) != 3 {
		t.Fatalf("restored labels: %d, want 3", len(got.Labels))
	}
	// Deleting the session removes its directory.
	doJSON(t, ts2, "DELETE", base, "", nil, http.StatusNoContent, nil)
	if _, err := os.Stat(filepath.Join(dataDir, "sessions", created.ID)); !os.IsNotExist(err) {
		t.Fatalf("session dir must be removed, stat err: %v", err)
	}
}

// TestServeRecoveryEquivalenceCSV: a session fed over both ingestion paths
// (JSON and chunked CSV, including a rolled-back failing upload) recovers
// bit-identically — a CSV upload is journaled as one record only after it
// fully succeeds, so the failed upload leaves nothing in the log and the
// rollback needs no compensating record.
func TestServeRecoveryEquivalenceCSV(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	opts := serverOptions{workers: 1, timeout: 30 * time.Second, csvBatch: 8, dataDir: dataDir, walSync: persist.SyncAlways}
	srv1 := mustServer(t, opts)
	ts1 := httptest.NewServer(srv1.handler())
	defer ts1.Close()

	data := adawave.SyntheticEvaluation(60, 0.4, 4)
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, ts1, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID

	var csvBody bytes.Buffer
	for _, p := range data.Points[:100] {
		fmt.Fprintf(&csvBody, "%v,%v\n", p[0], p[1])
	}
	doJSON(t, ts1, "POST", base+"/points", "text/csv", csvBody.Bytes(), http.StatusOK, nil)
	// A failing upload: three full chunks apply, then a parse error rolls
	// them back; the journal must carry both sides.
	bad := csvBody.String() + "oops,nope\n"
	doJSON(t, ts1, "POST", base+"/points", "text/csv", []byte(bad), http.StatusBadRequest, nil)
	body, _ := json.Marshal(map[string]any{"points": data.Points[100:]})
	doJSON(t, ts1, "POST", base+"/points", "application/json", body, http.StatusOK, nil)

	var want struct {
		Labels []int `json:"labels"`
	}
	doJSON(t, ts1, "GET", base+"/labels", "", nil, http.StatusOK, &want)
	if len(want.Labels) != len(data.Points) {
		t.Fatalf("labels before crash: %d, want %d", len(want.Labels), len(data.Points))
	}

	srv2 := mustServer(t, opts)
	ts2 := httptest.NewServer(srv2.handler())
	defer ts2.Close()
	var got struct {
		Labels []int `json:"labels"`
	}
	doJSON(t, ts2, "GET", base+"/labels", "", nil, http.StatusOK, &got)
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("recovered labels: %d, want %d", len(got.Labels), len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
}
