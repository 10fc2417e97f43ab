package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adawave"
	"adawave/internal/api"
	"adawave/internal/datasets"
	"adawave/internal/persist"
	"adawave/internal/synth"
)

// clusterPair starts a primary and a follower replicating it, both
// in-process, with tightened replication cadence so failover drills finish
// in test time.
func clusterPair(t *testing.T, workers int) (primary, follower *httptest.Server, srvP, srvF *server) {
	t.Helper()
	srvP = mustServer(t, serverOptions{
		workers: workers, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: rolePrimary,
	})
	primary = httptest.NewServer(srvP.handler())
	t.Cleanup(primary.Close)
	srvF = followerOfURL(t, workers, primary.URL)
	follower = httptest.NewServer(srvF.handler())
	t.Cleanup(follower.Close)
	return primary, follower, srvP, srvF
}

func followerOfURL(t *testing.T, workers int, primaryURL string) *server {
	t.Helper()
	return mustServer(t, serverOptions{
		workers: workers, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: roleFollower,
		followerOf:  primaryURL,
		replicaPoll: 50 * time.Millisecond, replicaRetry: 25 * time.Millisecond,
	})
}

// waitCaughtUp polls the follower's replication status until the session's
// applied sequence reaches wantSeq with a live stream.
func waitCaughtUp(t *testing.T, follower *httptest.Server, id string, wantSeq uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var last api.ReplicationStatusResponse
	for time.Now().Before(deadline) {
		doJSON(t, follower, "GET", "/v1/replication/status", "", nil, http.StatusOK, &last)
		if st, ok := last.Sessions[id]; ok && st.AppliedSeq >= wantSeq && st.Lag == 0 && st.Connected {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to seq %d: %+v", wantSeq, last.Sessions[id])
}

// primaryWALSeq reads the primary's durable WAL position for one session
// from its replication feed — the number a follower's lag is measured
// against.
func primaryWALSeq(t *testing.T, primary *httptest.Server, id string) uint64 {
	t.Helper()
	var list api.ReplicationSessionsResponse
	doJSON(t, primary, "GET", "/v1/replication/sessions", "", nil, http.StatusOK, &list)
	for _, row := range list.Sessions {
		if row.ID == id {
			return row.WALSeq
		}
	}
	t.Fatalf("session %s not in primary replication feed: %+v", id, list.Sessions)
	return 0
}

func getLabels(t *testing.T, ts *httptest.Server, base string) (labels []int, clusters int) {
	t.Helper()
	var out struct {
		Labels      []int `json:"labels"`
		NumClusters int   `json:"numClusters"`
	}
	doJSON(t, ts, "GET", base+"/labels", "", nil, http.StatusOK, &out)
	return out.Labels, out.NumClusters
}

// TestKillAndPromoteProperty is the cluster acceptance gate: random
// append/remove splits of the Fig. 2 / Fig. 7 / dermatology fixtures are
// driven through a primary while a follower replicates the WAL stream (with
// a mid-sequence checkpoint forcing the checkpoint re-sync path); the
// primary is then killed without any graceful handoff and the promoted
// follower must serve labels bit-identical to the lost primary's. Runs
// under -race in CI.
func TestKillAndPromoteProperty(t *testing.T) {
	derm, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name string
		pts  [][]float64
		cfg  string // POST /v1/sessions body; "" keeps the defaults
	}{
		{"fig2", synth.RunningExampleSized(400, 1).Points, ""},
		{"fig7", synth.Evaluation(300, 0.8, 1).Points, ""},
		// Auto-scale + an explicit basis, so the config fingerprint the
		// follower provisions from carries non-default fields.
		{"dermatology", derm.Points, `{"scale":0,"basis":"haar"}`},
	}
	for fi, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(fi)*977 + 31))
			primary, follower, _, _ := clusterPair(t, 1)

			var cfgBody []byte
			if fx.cfg != "" {
				cfgBody = []byte(fx.cfg)
			}
			var created struct {
				ID string `json:"id"`
			}
			doJSON(t, primary, "POST", "/v1/sessions", "application/json", cfgBody, http.StatusCreated, &created)
			base := "/v1/sessions/" + created.ID

			// Random append/remove split, journaled on the primary; one random
			// step also checkpoints, so the follower exercises the 409
			// replication_restart → full re-sync path mid-stream, not just the
			// happy tail.
			n, live := len(fx.pts), 0
			ckptAt, steps := 1+rng.Intn(5), 0
			for off := 0; off < n; {
				b := 1 + rng.Intn(n-off)
				if rng.Intn(3) > 0 && n-off > 10 {
					b = 1 + rng.Intn((n-off)/3+1)
				}
				body, err := json.Marshal(map[string]any{"points": fx.pts[off : off+b]})
				if err != nil {
					t.Fatal(err)
				}
				doJSON(t, primary, "POST", base+"/points", "application/json", body, http.StatusOK, nil)
				off += b
				live += b
				steps++
				if rng.Intn(2) == 0 && live > 20 {
					nrm := 1 + rng.Intn(live/10+1)
					idx := rng.Perm(live)[:nrm]
					rmBody, err := json.Marshal(map[string]any{"indices": idx})
					if err != nil {
						t.Fatal(err)
					}
					doJSON(t, primary, "DELETE", base+"/points", "application/json", rmBody, http.StatusOK, nil)
					live -= nrm
					steps++
				}
				if steps >= ckptAt && ckptAt > 0 {
					doJSON(t, primary, "POST", base+"/checkpoint", "", nil, http.StatusOK, nil)
					ckptAt = 0
				}
			}

			wantLabels, wantClusters := getLabels(t, primary, base)
			if len(wantLabels) != live {
				t.Fatalf("primary labels: %d, want %d", len(wantLabels), live)
			}
			waitCaughtUp(t, follower, created.ID, primaryWALSeq(t, primary, created.ID))

			// The lag is observable where the issue says it is: the follower's
			// session detail carries the replication block.
			var detail api.SessionDetail
			doJSON(t, follower, "GET", "/v1/sessions/"+created.ID, "", nil, http.StatusOK, &detail)
			if detail.Replication == nil || detail.Replication.Role != roleFollower {
				t.Fatalf("follower detail missing replication block: %+v", detail.Replication)
			}
			if detail.Points != live {
				t.Fatalf("follower replica holds %d points, want %d", detail.Points, live)
			}

			// Kill the primary: tear every open connection (the follower's
			// live stream included), then stop the listener. No graceful
			// handoff — the follower has only what it already replicated.
			primary.CloseClientConnections()
			primary.Close()

			var prom api.PromoteResponse
			doJSON(t, follower, "POST", "/v1/replication/promote", "", nil, http.StatusOK, &prom)
			if prom.Role != rolePrimary || prom.Promoted != 1 {
				t.Fatalf("promote: %+v", prom)
			}

			gotLabels, gotClusters := getLabels(t, follower, base)
			if gotClusters != wantClusters || len(gotLabels) != len(wantLabels) {
				t.Fatalf("promoted: %d clusters / %d labels, want %d / %d",
					gotClusters, len(gotLabels), wantClusters, len(wantLabels))
			}
			for i := range wantLabels {
				if gotLabels[i] != wantLabels[i] {
					t.Fatalf("label %d: got %d, want %d", i, gotLabels[i], wantLabels[i])
				}
			}

			// The promoted node is a full primary: it takes mutations and
			// serves its own replication feed.
			body, _ := json.Marshal(map[string]any{"points": fx.pts[:5]})
			doJSON(t, follower, "POST", base+"/points", "application/json", body, http.StatusOK, nil)
			if seq := primaryWALSeq(t, follower, created.ID); seq == 0 {
				t.Fatal("promoted node serves no replication feed")
			}
		})
	}
}

// TestFollowerResumesAcrossTornStream tears the replication stream in the
// middle of a frame — one complete record, then half of the next — and
// requires the follower to reconnect from its applied sequence and converge
// without duplicate application. The tear is injected by a chopping proxy
// between follower and primary, so the cut lands mid-record
// deterministically rather than whenever a connection reset happens to
// arrive.
func TestFollowerResumesAcrossTornStream(t *testing.T) {
	srvP := mustServer(t, serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: rolePrimary,
	})
	primary := httptest.NewServer(srvP.handler())
	defer primary.Close()

	// Two records on the primary before the follower ever connects, so the
	// first stream has a frame to tear.
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	data := adawave.SyntheticEvaluation(120, 0.5, 7)
	post := func(ts *httptest.Server, pts [][]float64) {
		body, err := json.Marshal(map[string]any{"points": pts})
		if err != nil {
			t.Fatal(err)
		}
		doJSON(t, ts, "POST", base+"/points", "application/json", body, http.StatusOK, nil)
	}
	post(primary, data.Points[:400])
	post(primary, data.Points[400:800])

	pu, err := url.Parse(primary.URL)
	if err != nil {
		t.Fatal(err)
	}
	pass := httputil.NewSingleHostReverseProxy(pu)
	pass.FlushInterval = -1
	var torn, walStreams atomic.Int32
	chop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/wal") {
			pass.ServeHTTP(w, r)
			return
		}
		walStreams.Add(1)
		if !torn.CompareAndSwap(0, 1) {
			pass.ServeHTTP(w, r)
			return
		}
		// First stream: relay frame 1 whole, frame 2 torn mid-record, then
		// end the response — the follower's reader dies inside a frame.
		resp, err := http.Get(primary.URL + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil || resp.StatusCode != http.StatusOK {
			http.Error(w, "upstream", http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		f1, _, err1 := persist.ReadFrame(br)
		f2, _, err2 := persist.ReadFrame(br)
		if err1 != nil || err2 != nil {
			http.Error(w, fmt.Sprintf("frames: %v %v", err1, err2), http.StatusBadGateway)
			return
		}
		w.Header().Set(api.HeaderWALSeq, resp.Header.Get(api.HeaderWALSeq))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(f1)
		w.Write(f2[:len(f2)/2])
	}))
	defer chop.Close()

	srvF := followerOfURL(t, 1, chop.URL)
	follower := httptest.NewServer(srvF.handler())
	defer follower.Close()

	waitCaughtUp(t, follower, created.ID, 2)
	if walStreams.Load() < 2 {
		t.Fatalf("follower converged over %d wal streams, want ≥ 2 (torn + resume)", walStreams.Load())
	}

	// More appends after the resume ride the healthy stream.
	post(primary, data.Points[800:])
	wantLabels, wantClusters := getLabels(t, primary, base)
	waitCaughtUp(t, follower, created.ID, primaryWALSeq(t, primary, created.ID))

	var prom api.PromoteResponse
	doJSON(t, follower, "POST", "/v1/replication/promote", "", nil, http.StatusOK, &prom)
	if prom.Promoted != 1 {
		t.Fatalf("promote: %+v", prom)
	}
	gotLabels, gotClusters := getLabels(t, follower, base)
	if gotClusters != wantClusters || len(gotLabels) != len(wantLabels) {
		// A duplicate application would inflate the point count here.
		t.Fatalf("promoted: %d clusters / %d labels, want %d / %d",
			gotClusters, len(gotLabels), wantClusters, len(wantLabels))
	}
	for i := range wantLabels {
		if gotLabels[i] != wantLabels[i] {
			t.Fatalf("label %d: got %d, want %d", i, gotLabels[i], wantLabels[i])
		}
	}
}

// TestFollowerRoleGate: a follower answers reads about its replicas but
// sends every mutation back to the primary with 409 not_primary — and the
// gate opens in place once promoted.
func TestFollowerRoleGate(t *testing.T) {
	primary, follower, _, _ := clusterPair(t, 1)
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	doJSON(t, primary, "POST", "/v1/sessions/"+created.ID+"/points", "application/json",
		[]byte(`{"points":[[1,2],[3,4],[5,6]]}`), http.StatusOK, nil)
	waitCaughtUp(t, follower, created.ID, 1)

	// Mutations and label reads are refused with the routing hint...
	var env api.ErrorResponse
	doJSON(t, follower, "POST", "/v1/sessions", "", nil, http.StatusConflict, &env)
	if env.Error.Code != api.CodeNotPrimary {
		t.Fatalf("create on follower: code %q, want %q", env.Error.Code, api.CodeNotPrimary)
	}
	doJSON(t, follower, "GET", "/v1/sessions/"+created.ID+"/labels", "", nil, http.StatusConflict, &env)
	if env.Error.Code != api.CodeNotPrimary {
		t.Fatalf("labels on follower: code %q, want %q", env.Error.Code, api.CodeNotPrimary)
	}
	// ...while health, metrics (with the replication block) and listings
	// answer locally.
	doJSON(t, follower, "GET", "/healthz", "", nil, http.StatusOK, nil)
	var metrics api.MetricsResponse
	doJSON(t, follower, "GET", "/v1/metrics", "", nil, http.StatusOK, &metrics)
	if metrics.Replication == nil || metrics.Replication.Role != roleFollower {
		t.Fatalf("follower metrics missing replication overview: %+v", metrics.Replication)
	}
	var listed api.ListSessionsResponse
	doJSON(t, follower, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
	if len(listed.Sessions) != 1 || listed.Sessions[0].ID != created.ID {
		t.Fatalf("follower listing: %+v", listed.Sessions)
	}

	doJSON(t, follower, "POST", "/v1/replication/promote", "", nil, http.StatusOK, nil)
	doJSON(t, follower, "GET", "/v1/sessions/"+created.ID+"/labels", "", nil, http.StatusOK, nil)
}

// TestFollowerDetectsPrimaryHistoryRewrite: a primary that lost its WAL
// tail (crash under -wal-sync=interval, disk restored from backup) restarts
// with a log ending BELOW the follower's applied sequence, then re-issues
// the same sequence numbers for new, different mutations. The follower must
// treat the regressed stream-open header as a divergence signal and rebuild
// from a fresh checkpoint instead of silently applying divergent frames
// that pass the contiguity check. The rewrite is simulated by a proxy that
// answers one WAL subscription with a doctored (regressed) sequence header.
func TestFollowerDetectsPrimaryHistoryRewrite(t *testing.T) {
	srvP := mustServer(t, serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: rolePrimary,
	})
	primary := httptest.NewServer(srvP.handler())
	defer primary.Close()

	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	base := "/v1/sessions/" + created.ID
	data := adawave.SyntheticEvaluation(90, 0.5, 11)
	post := func(pts [][]float64) {
		body, err := json.Marshal(map[string]any{"points": pts})
		if err != nil {
			t.Fatal(err)
		}
		doJSON(t, primary, "POST", base+"/points", "application/json", body, http.StatusOK, nil)
	}
	post(data.Points[:300])
	post(data.Points[300:600])

	pu, err := url.Parse(primary.URL)
	if err != nil {
		t.Fatal(err)
	}
	pass := httputil.NewSingleHostReverseProxy(pu)
	pass.FlushInterval = -1
	var doctor atomic.Bool
	var ckptFetches atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/checkpoint") {
			ckptFetches.Add(1)
		}
		if strings.HasSuffix(r.URL.Path, "/wal") && doctor.CompareAndSwap(true, false) {
			// One stream open impersonating the rewritten primary: the log
			// now claims to end at seq 1 while the follower applied 2.
			w.Header().Set(api.HeaderWALSeq, "1")
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			return
		}
		pass.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	srvF := followerOfURL(t, 1, proxy.URL)
	follower := httptest.NewServer(srvF.handler())
	defer follower.Close()

	waitCaughtUp(t, follower, created.ID, 2)
	baseFetches := ckptFetches.Load()

	// Tear the live stream; the reconnect lands on the doctored header.
	doctor.Store(true)
	proxy.CloseClientConnections()

	deadline := time.Now().Add(10 * time.Second)
	for ckptFetches.Load() == baseFetches && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if ckptFetches.Load() == baseFetches {
		t.Fatal("follower never re-synced from a checkpoint after the sequence regression")
	}

	// The rebuilt replica converges on the real primary's state and is
	// promotable with the correct labels.
	wantLabels, wantClusters := getLabels(t, primary, base)
	waitCaughtUp(t, follower, created.ID, primaryWALSeq(t, primary, created.ID))
	var prom api.PromoteResponse
	doJSON(t, follower, "POST", "/v1/replication/promote", "", nil, http.StatusOK, &prom)
	if prom.Promoted != 1 {
		t.Fatalf("promote: %+v", prom)
	}
	gotLabels, gotClusters := getLabels(t, follower, base)
	if gotClusters != wantClusters || len(gotLabels) != len(wantLabels) {
		t.Fatalf("promoted: %d clusters / %d labels, want %d / %d",
			gotClusters, len(gotLabels), wantClusters, len(wantLabels))
	}
	for i := range wantLabels {
		if gotLabels[i] != wantLabels[i] {
			t.Fatalf("label %d: got %d, want %d", i, gotLabels[i], wantLabels[i])
		}
	}
}

// TestReplicationAuthGate: with -cluster-secret set, every /v1/replication/
// endpoint refuses requests without the credential (the feed hands out full
// session data; promote rewires the topology), while a follower and a
// router carrying the same secret work end to end.
func TestReplicationAuthGate(t *testing.T) {
	const secret = "s3cret-drill"
	srvP := mustServer(t, serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: rolePrimary,
		clusterSecret: secret,
	})
	primary := httptest.NewServer(srvP.handler())
	defer primary.Close()

	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/replication/sessions"},
		{"GET", "/v1/replication/status"},
		{"POST", "/v1/replication/promote"},
	} {
		var env api.ErrorResponse
		doJSON(t, primary, probe.method, probe.path, "", nil, http.StatusUnauthorized, &env)
		if env.Error.Code != api.CodeUnauthorized {
			t.Fatalf("%s %s: code %q, want %q", probe.method, probe.path, env.Error.Code, api.CodeUnauthorized)
		}
	}
	// A wrong secret is as refused as a missing one.
	req, err := http.NewRequest("GET", primary.URL+"/v1/replication/sessions", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderClusterSecret, "wrong")
	resp, err := primary.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong secret answered %d, want 401", resp.StatusCode)
	}

	// Tenant traffic is untouched by the gate.
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	doJSON(t, primary, "POST", "/v1/sessions/"+created.ID+"/points", "application/json",
		[]byte(`{"points":[[1,2],[3,4],[5,6]]}`), http.StatusOK, nil)

	// A follower started with the matching secret replicates end to end…
	srvF := mustServer(t, serverOptions{
		workers: 1, timeout: 60 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "data"),
		walSync: persist.SyncNever, role: roleFollower,
		followerOf:  primary.URL,
		replicaPoll: 50 * time.Millisecond, replicaRetry: 25 * time.Millisecond,
		clusterSecret: secret,
	})
	follower := httptest.NewServer(srvF.handler())
	defer follower.Close()

	deadline := time.Now().Add(10 * time.Second)
	var detail api.SessionDetail
	for time.Now().Before(deadline) {
		r, err := http.Get(follower.URL + "/v1/sessions/" + created.ID)
		if err == nil {
			err = json.NewDecoder(r.Body).Decode(&detail)
			r.Body.Close()
			if err == nil && detail.Points == 3 && detail.Replication != nil && detail.Replication.Lag == 0 {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if detail.Points != 3 {
		t.Fatalf("authed follower never replicated the session: %+v", detail)
	}

	// …and the authed promote (what the router sends under -cluster-secret)
	// succeeds where the bare one was refused.
	preq, err := http.NewRequest("POST", follower.URL+"/v1/replication/promote", nil)
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set(api.HeaderClusterSecret, secret)
	presp, err := follower.Client().Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	var prom api.PromoteResponse
	err = json.NewDecoder(presp.Body).Decode(&prom)
	presp.Body.Close()
	if err != nil || presp.StatusCode != http.StatusOK || prom.Promoted != 1 {
		t.Fatalf("authed promote: status %d, %+v, %v", presp.StatusCode, prom, err)
	}
}

// TestDroppedReplicaQuarantined: when the primary's session list omits a
// replicated id the follower drops the replica — but parks its directory
// under sessions/.quarantine instead of deleting it, because an omitted id
// is also what a primary restarted against a fresh data dir looks like, and
// then the follower holds the only surviving copy.
func TestDroppedReplicaQuarantined(t *testing.T) {
	primary, follower, _, srvF := clusterPair(t, 1)
	var created struct {
		ID string `json:"id"`
	}
	doJSON(t, primary, "POST", "/v1/sessions", "", nil, http.StatusCreated, &created)
	doJSON(t, primary, "POST", "/v1/sessions/"+created.ID+"/points", "application/json",
		[]byte(`{"points":[[1,2],[3,4],[5,6]]}`), http.StatusOK, nil)
	waitCaughtUp(t, follower, created.ID, 1)

	doJSON(t, primary, "DELETE", "/v1/sessions/"+created.ID, "", nil, http.StatusNoContent, nil)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var listed api.ListSessionsResponse
		doJSON(t, follower, "GET", "/v1/sessions", "", nil, http.StatusOK, &listed)
		if len(listed.Sessions) == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	live := filepath.Join(srvF.disk.Path(), created.ID)
	quarantined := filepath.Join(srvF.disk.Path(), ".quarantine", created.ID)
	if _, err := os.Stat(live); !os.IsNotExist(err) {
		t.Fatalf("dropped replica's live directory still present (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(quarantined, "wal.log")); err != nil {
		t.Fatalf("quarantined journal missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(quarantined, "config.json")); err != nil {
		t.Fatalf("quarantined config missing: %v", err)
	}

	// A promote after the drop must not resurrect the session.
	var prom api.PromoteResponse
	doJSON(t, follower, "POST", "/v1/replication/promote", "", nil, http.StatusOK, &prom)
	if prom.Promoted != 0 {
		t.Fatalf("promote resurrected a dropped session: %+v", prom)
	}
}
