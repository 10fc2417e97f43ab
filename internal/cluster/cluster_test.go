package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingLookupStable(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"a", "b", "c"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("s%d", i)
		p1, f1 := r.Lookup(key)
		p2, f2 := r2.Lookup(key)
		if p1 != p2 || f1 != f2 {
			t.Fatalf("lookup %q not deterministic: (%s,%s) vs (%s,%s)", key, p1, f1, p2, f2)
		}
		if p1 == f1 {
			t.Fatalf("lookup %q: follower equals primary %s", key, p1)
		}
		if f1 == "" {
			t.Fatalf("lookup %q: no follower with 3 members", key)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	r, err := NewRing(members, 128)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		p, _ := r.Lookup(fmt.Sprintf("session-%d", i))
		counts[p]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %s owns %.1f%% of keys — ring badly imbalanced: %v", m, share*100, counts)
		}
	}
}

func TestRingMinimalMovement(t *testing.T) {
	r3, err := NewRing([]string{"a", "b", "c"}, 128)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := NewRing([]string{"a", "b", "c", "d"}, 128)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("s%d", i)
		p3, _ := r3.Lookup(key)
		p4, _ := r4.Lookup(key)
		if p3 != p4 {
			if p4 != "d" {
				t.Fatalf("key %q moved %s → %s, not to the new member", key, p3, p4)
			}
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of keys to the new 4th member; far more
	// means the ring is rehashing everything.
	if share := float64(moved) / n; share > 0.40 {
		t.Fatalf("%.1f%% of keys moved when adding one member", share*100)
	}
}

func TestRingSingleMember(t *testing.T) {
	r, err := NewRing([]string{"solo"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, f := r.Lookup("anything")
	if p != "solo" || f != "" {
		t.Fatalf("got (%q,%q), want (solo, empty)", p, f)
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 8); err == nil {
		t.Fatal("empty member accepted")
	}
}

// TestMembershipObserve: the router's liveness fold — one miss does not
// fail a shard, a success resets the miss count, FailThreshold consecutive
// misses take a shard with no follower down (no active node), and revive
// puts it back in service against its primary.
func TestMembershipObserve(t *testing.T) {
	rt, err := NewRouter(RouterOptions{Shards: []Shard{{Primary: "http://n1"}}, FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	ss := rt.shards["http://n1"]
	if ss.activeURL() != ss.primaryURL {
		t.Fatal("shards must start healthy on their primary")
	}
	rt.observe(ss, false)
	if ss.activeURL() != ss.primaryURL {
		t.Fatal("one miss must not fail a shard")
	}
	rt.observe(ss, true)
	rt.observe(ss, false)
	if ss.activeURL() != ss.primaryURL {
		t.Fatal("a success must reset the miss count")
	}
	rt.observe(ss, false)
	if !ss.isDown() || ss.activeURL() != nil {
		t.Fatal("threshold misses must take a follower-less shard down")
	}
	rt.observe(ss, true)
	if !ss.isDown() {
		t.Fatal("only revive may put a down shard back in service")
	}
	ss.revive()
	if ss.isDown() || ss.activeURL() != ss.primaryURL {
		t.Fatal("revive must put the shard back on its primary")
	}
}

// TestMembershipProbesHealthz: Probe is one GET of the node's /healthz
// (trailing slash or not) that counts only a 200 as alive; an error status
// or an unreachable node is dead.
func TestMembershipProbesHealthz(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s, want /healthz", r.URL.Path)
		}
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	client := srv.Client()
	for _, node := range []string{srv.URL, srv.URL + "/"} {
		healthy.Store(true)
		if !Probe(client, node) {
			t.Fatalf("%s: healthy node probed dead", node)
		}
		healthy.Store(false)
		if Probe(client, node) {
			t.Fatalf("%s: failing node probed alive", node)
		}
	}
	srv.Close()
	if Probe(client, srv.URL) {
		t.Fatal("unreachable node probed alive")
	}
}

func TestParseShards(t *testing.T) {
	shards, err := ParseShards("http://a:1=http://a2:1, http://b:2=http://b2:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Shard{
		{Primary: "http://a:1", Follower: "http://a2:1"},
		{Primary: "http://b:2", Follower: "http://b2:2"},
	}
	if len(shards) != len(want) {
		t.Fatalf("got %d shards, want %d", len(shards), len(want))
	}
	for i := range want {
		if shards[i] != want[i] {
			t.Fatalf("shard %d = %+v, want %+v", i, shards[i], want[i])
		}
	}

	solo, err := ParseShards("http://only:1")
	if err != nil {
		t.Fatal(err)
	}
	if solo[0].Follower != "" {
		t.Fatalf("bare peer must have no follower, got %q", solo[0].Follower)
	}

	for _, bad := range []string{"", "   ", "not-a-url=http://b:1", "http://a:1=also-bad", "=http://f:1"} {
		if _, err := ParseShards(bad); err == nil {
			t.Fatalf("ParseShards(%q) accepted", bad)
		}
	}
}

func TestCheckpointFileNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 8192, 1<<63 + 7} {
		name := CheckpointFileName(seq)
		got, ok := CheckpointSeqOf(name)
		if !ok || got != seq {
			t.Fatalf("round trip %d → %q → (%d,%v)", seq, name, got, ok)
		}
	}
	if _, ok := CheckpointSeqOf("wal.log"); ok {
		t.Fatal("wal.log parsed as checkpoint")
	}
	if _, ok := CheckpointSeqOf("checkpoint-x.awc"); ok {
		t.Fatal("non-numeric checkpoint name parsed")
	}
}

func TestRouterFailoverStateMachine(t *testing.T) {
	promoted := atomic.Int32{}
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/v1/replication/promote":
			promoted.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"role":"primary","promoted":1,"sessions":["s1"]}`))
		default:
			w.Write([]byte(`{"ok":true,"path":"` + r.URL.Path + `"}`))
		}
	}))
	defer follower.Close()

	primaryHealthy := atomic.Bool{}
	primaryHealthy.Store(true)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !primaryHealthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Write([]byte(`{"node":"primary"}`))
	}))
	defer primary.Close()

	rt, err := NewRouter(RouterOptions{
		Shards:        []Shard{{Primary: primary.URL, Follower: follower.URL}},
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 2,
		RetryAfter:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy shard answered %d", resp.StatusCode)
	}

	primaryHealthy.Store(false)
	deadline := time.Now().Add(3 * time.Second)
	for promoted.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if promoted.Load() == 0 {
		t.Fatal("router never promoted the follower")
	}
	for time.Now().Before(deadline) {
		st := rt.Status()
		if len(st) == 1 && st[0].State == ShardPromoted {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := rt.Status()
	if st[0].State != ShardPromoted || st[0].Active != follower.URL {
		t.Fatalf("shard state %+v after promote", st[0])
	}

	// Traffic now lands on the follower.
	resp, err = http.Get(front.URL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted shard answered %d", resp.StatusCode)
	}
}

func TestRouterUnavailableDuringFailover(t *testing.T) {
	// A follower that never answers promote keeps the shard in failover;
	// the router must answer 503 + Retry-After the whole time.
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer follower.Close()

	rt, err := NewRouter(RouterOptions{
		Shards:        []Shard{{Primary: "http://127.0.0.1:1", Follower: follower.URL}},
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 1,
		RetryAfter:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if st := rt.Status(); st[0].State == ShardFailover {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := rt.Status(); st[0].State != ShardFailover {
		t.Fatalf("shard state %q, want failover", st[0].State)
	}

	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-failover request answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want 2", resp.Header.Get("Retry-After"))
	}
}

func TestRouterPinsSessionIDOnCreate(t *testing.T) {
	var gotID atomic.Value
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
			gotID.Store(r.Header.Get("X-Adawave-Session-Id"))
		}
		w.Write([]byte(`{}`))
	}))
	defer node.Close()

	rt, err := NewRouter(RouterOptions{Shards: []Shard{{Primary: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id, _ := gotID.Load().(string)
	if len(id) != 17 || id[0] != 'c' {
		t.Fatalf("router minted id %q, want c+16 hex", id)
	}
	if rt.Place(id) != node.URL {
		t.Fatalf("minted id %q does not place on its shard", id)
	}
}

// TestRouterIgnoresClientAborts: httputil invokes ErrorHandler for
// client-side aborts too (the caller hung up or timed out mid-proxy);
// those must not count as liveness misses, or two impatient clients within
// one probe window would fence a perfectly healthy primary.
func TestRouterIgnoresClientAborts(t *testing.T) {
	rt, err := NewRouter(RouterOptions{
		Shards:        []Shard{{Primary: "http://127.0.0.1:1", Follower: "http://127.0.0.1:2"}},
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := rt.shards["http://127.0.0.1:1"]

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	aborted := httptest.NewRequest(http.MethodGet, "/v1/sessions/s1", nil).
		WithContext(context.WithValue(canceled, ctxShard, ss))
	for i := 0; i < 3; i++ {
		rt.proxy.ErrorHandler(httptest.NewRecorder(), aborted, context.Canceled)
	}
	ss.mu.Lock()
	misses, state := ss.misses, ss.state
	ss.mu.Unlock()
	if misses != 0 || state != ShardHealthy {
		t.Fatalf("client aborts counted as misses: misses=%d state=%s", misses, state)
	}

	// A genuine upstream failure (live request context) still counts —
	// request-speed failure detection stays intact.
	live := httptest.NewRequest(http.MethodGet, "/v1/sessions/s1", nil).
		WithContext(context.WithValue(context.Background(), ctxShard, ss))
	rt.proxy.ErrorHandler(httptest.NewRecorder(), live, errors.New("dial tcp 127.0.0.1:1: connection refused"))
	ss.mu.Lock()
	misses = ss.misses
	ss.mu.Unlock()
	if misses != 1 {
		t.Fatalf("genuine upstream failure not observed: misses=%d", misses)
	}
}

// TestRouterDownShardRecovers: a shard with no follower whose primary dies
// goes down — and must come back on its own when the primary answers
// probes again, instead of blackholing the shard until a router restart.
func TestRouterDownShardRecovers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	node := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Write([]byte(`{"node":"primary"}`))
	})
	hs := &http.Server{Handler: node}
	go hs.Serve(ln)

	rt, err := NewRouter(RouterOptions{
		Shards:        []Shard{{Primary: "http://" + addr}},
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	waitShardState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st := rt.Status(); st[0].State == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("shard state %q, want %q", rt.Status()[0].State, want)
	}

	hs.Close()
	waitShardState(ShardDown)

	// The node returns on the same address (same node, same data: no
	// promotion ever happened) and the router folds it back in.
	var ln2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	hs2 := &http.Server{Handler: node}
	go hs2.Serve(ln2)
	defer hs2.Close()
	waitShardState(ShardHealthy)

	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered shard answered %d", resp.StatusCode)
	}
}
