package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adawave"
	"adawave/client"
	"adawave/internal/oracle"
	"adawave/internal/persist"
	"adawave/internal/sched"
)

func TestParseTenants(t *testing.T) {
	if m, err := parseTenants(""); err != nil || m != nil {
		t.Fatalf("empty spec: %v, %v", m, err)
	}
	m, err := parseTenants("k1=alice, k2=bob,k3=bob")
	if err != nil || len(m) != 3 || m["k1"] != "alice" || m["k2"] != "bob" || m["k3"] != "bob" {
		t.Fatalf("spec: %v, %v", m, err)
	}
	for _, bad := range []string{"k1=alice,k1=bob", "nope", "k1=", "=alice"} {
		if _, err := parseTenants(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}

// keyedJSON issues one request with an optional X-API-Key and returns status,
// body, and headers — the raw-wire view the typed client abstracts away.
func keyedJSON(t *testing.T, ts *httptest.Server, method, path, key, body string) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header
}

// TestServeTenantKeysAndUsage: API keys resolve to tenants, unknown keys are
// refused, session DTOs carry the tenant, keyless requests fall into the
// default tenant, and GET /v1/tenants/{id}/usage reports per-tenant standing
// through the typed client.
func TestServeTenantKeysAndUsage(t *testing.T) {
	srv := mustServer(t, serverOptions{
		workers: 1, timeout: 30 * time.Second,
		tenants: map[string]string{"ka": "alice", "kb": "bob"},
		quota:   sched.Quota{MaxPoints: 10_000},
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	ctx := context.Background()

	// An unknown key is refused outright — not silently demoted to default.
	if code, body, _ := keyedJSON(t, ts, "GET", "/v1/sessions", "k-wrong", ""); code != http.StatusForbidden {
		t.Fatalf("unknown key: %d %s", code, body)
	}

	alice := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithAPIKey("ka"))
	id, err := alice.CreateSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := adawave.SyntheticEvaluation(100, 0.5, 3)
	if _, err := alice.Append(ctx, id, data.Points); err != nil {
		t.Fatal(err)
	}
	detail, err := alice.Session(ctx, id)
	if err != nil || detail.Tenant != "alice" || !detail.Resident || detail.ResidentBytes <= 0 {
		t.Fatalf("detail: %+v, %v", detail, err)
	}
	list, err := alice.ListSessions(ctx)
	if err != nil || len(list) != 1 || list[0].Tenant != "alice" || !list[0].Resident {
		t.Fatalf("list: %+v, %v", list, err)
	}

	u, err := alice.Usage(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if u.Tenant != "alice" || u.Points != int64(len(data.Points)) || u.Sessions != 1 || u.ResidentSessions != 1 ||
		u.ResidentBytes <= 0 || u.Quota.MaxPoints != 10_000 || u.QPS <= 0 {
		t.Fatalf("alice usage: %+v", u)
	}
	if ub, err := alice.Usage(ctx, "bob"); err != nil || ub.Points != 0 || ub.Sessions != 0 {
		t.Fatalf("bob usage: %+v, %v", ub, err)
	}

	// A keyless request is served under the default tenant; its sessions are
	// invisible to (and do not count against) the named tenants.
	keyless := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	id2, err := keyless.CreateSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2, err := keyless.Session(ctx, id2); err != nil || d2.Tenant != sched.DefaultTenant {
		t.Fatalf("keyless detail: %+v, %v", d2, err)
	}
	if u, err := keyless.Usage(ctx, "alice"); err != nil || u.Sessions != 1 {
		t.Fatalf("alice usage after keyless create: %+v, %v", u, err)
	}
}

// TestServeQuotaPoints429: an append that would breach the tenant's points
// quota is refused with 429 resource_exhausted, a Retry-After header, and the
// machine-readable standing in details — and nothing is committed, so the
// rejected batch can be resent after shrinking or cleanup.
func TestServeQuotaPoints429(t *testing.T) {
	data := adawave.SyntheticEvaluation(100, 0.5, 3)
	n := int64(len(data.Points))
	maxPoints := n + n/2 // one batch fits, a second breaches
	srv := mustServer(t, serverOptions{
		workers: 1, timeout: 30 * time.Second,
		tenants: map[string]string{"ka": "alice"},
		quota:   sched.Quota{MaxPoints: maxPoints},
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	ctx := context.Background()

	alice := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithAPIKey("ka"))
	id, err := alice.CreateSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Append(ctx, id, data.Points); err != nil {
		t.Fatal(err)
	}
	_, err = alice.Append(ctx, id, data.Points) // n + n > n + n/2
	if err == nil {
		t.Fatal("over-quota append must be refused")
	}
	if !errors.Is(err, adawave.ErrResourceExhausted) {
		t.Fatalf("over-quota append: %v must match adawave.ErrResourceExhausted", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("over-quota append: %v (want 429)", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("429 must carry a Retry-After hint, got %v", apiErr.RetryAfter)
	}
	if apiErr.Details["quota"] != "points" || apiErr.Details["tenant"] != "alice" ||
		apiErr.Details["limit"] != float64(maxPoints) {
		t.Fatalf("429 details: %+v", apiErr.Details)
	}
	// Nothing committed: the session and the governor both still hold the
	// first batch only.
	if d, err := alice.Session(ctx, id); err != nil || int64(d.Points) != n {
		t.Fatalf("session after rejected append: %+v, %v", d, err)
	}
	if u, err := alice.Usage(ctx, "alice"); err != nil || u.Points != n {
		t.Fatalf("usage after rejected append: %+v, %v", u, err)
	}
}

// TestServeQPSAdmission: the sliding-window request-rate quota rejects at
// admission with the backpressure contract, while /healthz stays exempt so
// liveness probing never flaps under a rate-limited tenant.
func TestServeQPSAdmission(t *testing.T) {
	srv := mustServer(t, serverOptions{
		workers: 1, timeout: 30 * time.Second,
		tenants: map[string]string{"kr": "rate"},
	})
	srv.gov.SetQuota("rate", sched.Quota{MaxQPS: 0.5}) // 5 requests per 10s window
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if code, body, _ := keyedJSON(t, ts, "GET", "/v1/sessions", "kr", ""); code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, code, body)
		}
	}
	code, body, hdr := keyedJSON(t, ts, "GET", "/v1/sessions", "kr", "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("6th request: %d %s (want 429)", code, body)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After header: %q", hdr.Get("Retry-After"))
	}
	var env struct {
		Error struct {
			Code    string         `json:"code"`
			Details map[string]any `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("429 body: %s", body)
	}
	if env.Error.Code != "resource_exhausted" || env.Error.Details["quota"] != "qps" {
		t.Fatalf("429 envelope: %s", body)
	}
	// Liveness stays green for the throttled tenant.
	if code, body, _ := keyedJSON(t, ts, "GET", "/healthz", "kr", ""); code != http.StatusOK {
		t.Fatalf("healthz under throttle: %d %s", code, body)
	}
}

// TestServeClientRetryTransparent: the typed client configured WithRetry
// honors the 429's Retry-After hint and transparently resends, so a caller
// sees one successful Labels() even though the first attempt was refused by
// the concurrent-folds quota.
func TestServeClientRetryTransparent(t *testing.T) {
	srv := mustServer(t, serverOptions{
		workers: 1, timeout: 30 * time.Second,
		quota: sched.Quota{MaxConcurrentFolds: 1},
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	ctx := context.Background()

	plain := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	id, err := plain.CreateSession(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := adawave.SyntheticEvaluation(80, 0.5, 3)
	if _, err := plain.Append(ctx, id, data.Points); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the default tenant's single fold slot, impersonating an
	// in-flight compute pass.
	release, qe := srv.gov.AcquireFold(sched.DefaultTenant)
	if qe != nil {
		t.Fatal(qe)
	}
	// Without retries the rejection surfaces typed.
	if _, err := plain.Labels(ctx, id); !errors.Is(err, adawave.ErrResourceExhausted) {
		release()
		t.Fatalf("labels under fold quota: %v must match adawave.ErrResourceExhausted", err)
	}
	// With retries the client backs off per the hint and succeeds once the
	// slot frees.
	go func() {
		time.Sleep(300 * time.Millisecond)
		release()
	}()
	retrying := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithRetry(3))
	t0 := time.Now()
	res, err := retrying.Labels(ctx, id)
	if err != nil {
		t.Fatalf("retrying labels: %v", err)
	}
	if waited := time.Since(t0); waited < 500*time.Millisecond {
		t.Fatalf("retry succeeded after %v — it cannot have honored the 1s Retry-After hint", waited)
	}
	for i := range want.Labels {
		if res.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d after retry: got %d, want %d", i, res.Labels[i], want.Labels[i])
		}
	}
}

// TestServeEvictRehydrateConcurrent is the property test: with a residency
// budget of one, two sessions ping-pong between resident and evicted while
// eight concurrent readers hammer both; every read must return labels
// bit-identical to the in-process library, every time, under -race.
func TestServeEvictRehydrateConcurrent(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	srv := mustServer(t, serverOptions{
		workers: 2, timeout: 30 * time.Second,
		dataDir: dataDir, walSync: persist.SyncAlways,
		maxResident: 1,
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	ctx := context.Background()
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))

	mkSession := func(n int, seed int64) (string, *adawave.Result, int) {
		data := adawave.SyntheticEvaluation(n, 0.5, seed)
		id, err := cl.CreateSession(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Append(ctx, id, data.Points); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return id, want, len(data.Points)
	}
	id1, want1, pts1 := mkSession(300, 3)
	id2, want2, pts2 := mkSession(260, 7)

	// The budget of one forced an eviction; the list reports both shapes from
	// the cache without rehydrating either.
	list, err := cl.ListSessions(ctx)
	if err != nil || len(list) != 2 {
		t.Fatalf("list: %+v, %v", list, err)
	}
	resident := 0
	for _, row := range list {
		if row.Resident {
			resident++
		}
		wantPoints := map[string]int{id1: pts1, id2: pts2}[row.ID]
		if row.Points != wantPoints {
			t.Fatalf("evicted session %s must list its cached shape: got %d points, want %d", row.ID, row.Points, wantPoints)
		}
	}
	if resident != 1 {
		t.Fatalf("resident sessions after create burst: %d, want 1", resident)
	}

	// Eight readers, half per session, each forcing rehydrations that evict
	// the other session — the labels must be bit-identical on every read.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		id, want := id1, want1
		if r%2 == 1 {
			id, want = id2, want2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := cl.Labels(ctx, id)
				if err != nil {
					errs <- fmt.Errorf("labels %s: %w", id, err)
					return
				}
				if res.NumClusters != want.NumClusters || len(res.Labels) != len(want.Labels) {
					errs <- fmt.Errorf("session %s: %d clusters / %d labels, want %d / %d",
						id, res.NumClusters, len(res.Labels), want.NumClusters, len(want.Labels))
					return
				}
				for j := range want.Labels {
					if res.Labels[j] != want.Labels[j] {
						errs <- fmt.Errorf("session %s read %d: label %d diverged after rehydrate: got %d, want %d",
							id, i, j, res.Labels[j], want.Labels[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced, the budget holds again.
	srv.enforceResidency()
	list, err = cl.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resident = 0
	for _, row := range list {
		if row.Resident {
			resident++
		}
	}
	if resident > 1 {
		t.Fatalf("resident sessions after quiesce: %d, want ≤ 1", resident)
	}
}

// TestServeEightTenantBurst is the acceptance e2e of the governance stack:
// eight tenants burst concurrently — one with a 10× oversized session — under
// a per-tenant concurrent-folds quota and a residency budget smaller than the
// tenant count. Every tenant's reads succeed (transparently retrying through
// the typed client when quota-refused), the labels stay bit-identical to the
// in-process library across the evict/rehydrate churn, and the raw 429s carry
// the Retry-After contract.
func TestServeEightTenantBurst(t *testing.T) {
	const tenants = 8
	keys := make(map[string]string, tenants)
	for i := 0; i < tenants; i++ {
		keys[fmt.Sprintf("k%d", i)] = fmt.Sprintf("t%d", i)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	srv := mustServer(t, serverOptions{
		workers: 2, timeout: 30 * time.Second,
		tenants: keys,
		quota:   sched.Quota{MaxConcurrentFolds: 1},
		dataDir: dataDir, walSync: persist.SyncAlways,
		maxResident: 3,
	})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	ctx := context.Background()

	type tenantState struct {
		cl     *client.Client
		id     string
		want   *adawave.Result
		points int
	}
	states := make([]tenantState, tenants)
	for i := range states {
		n := 100
		if i == 0 {
			n = 1000 // the oversized tenant
		}
		data := adawave.SyntheticEvaluation(n, 0.5, int64(i+1))
		cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()),
			client.WithAPIKey(fmt.Sprintf("k%d", i)), client.WithRetry(6))
		id, err := cl.CreateSession(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Append(ctx, id, data.Points); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		states[i] = tenantState{cl: cl, id: id, want: want, points: len(data.Points)}
	}

	// Raw 429 check inside the contended setup: with t3's only fold slot
	// held, its labels read is refused with the full backpressure contract.
	release, qe := srv.gov.AcquireFold("t3")
	if qe != nil {
		t.Fatal(qe)
	}
	code, body, hdr := keyedJSON(t, ts, "GET", "/v1/sessions/"+states[3].id+"/labels", "k3", "")
	release()
	if code != http.StatusTooManyRequests {
		t.Fatalf("held fold slot: %d %s (want 429)", code, body)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After header: %q", hdr.Get("Retry-After"))
	}

	// The burst: two concurrent readers per tenant against a fold quota of
	// one, so intra-tenant contention produces real 429s the retrying client
	// must absorb — while the residency budget of three keeps evicting and
	// rehydrating sessions underneath.
	var wg sync.WaitGroup
	errs := make(chan error, tenants*2)
	for i := range states {
		st := states[i]
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 2; iter++ {
					res, err := st.cl.Labels(ctx, st.id)
					if err != nil {
						errs <- fmt.Errorf("tenant session %s: %w", st.id, err)
						return
					}
					for j := range st.want.Labels {
						if res.Labels[j] != st.want.Labels[j] {
							errs <- fmt.Errorf("session %s: label %d diverged under burst: got %d, want %d",
								st.id, j, res.Labels[j], st.want.Labels[j])
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The oversized tenant's accounting survived the churn, and the resident
	// set fits the budget once quiesced.
	if u, err := states[0].cl.Usage(ctx, "t0"); err != nil || u.Points != int64(states[0].points) || u.Sessions != 1 {
		t.Fatalf("t0 usage: %+v, %v", u, err)
	}
	srv.enforceResidency()
	resident := 0
	for _, ss := range srv.snapshotSessions() {
		if ss.resident() {
			resident++
		}
	}
	if resident > 3 {
		t.Fatalf("resident sessions after quiesce: %d, want ≤ 3", resident)
	}
}
