package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"adawave/internal/api"
)

// Shard is one primary/follower node pair. The primary serves all traffic;
// the follower replicates it and takes over when the router promotes it.
type Shard struct {
	Primary  string
	Follower string
}

// ParseShards parses the router's -peers flag: comma-separated
// primary=follower base-URL pairs ("http://a:8080=http://a2:8080,..."). A
// pair without '=' is a shard with no follower (no failover possible — the
// router still routes to it).
func ParseShards(spec string) ([]Shard, error) {
	var out []Shard
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sh := Shard{Primary: part}
		if i := strings.IndexByte(part, '='); i >= 0 {
			sh.Primary, sh.Follower = strings.TrimSpace(part[:i]), strings.TrimSpace(part[i+1:])
		}
		for _, u := range []string{sh.Primary, sh.Follower} {
			if u == "" {
				continue
			}
			parsed, err := url.Parse(u)
			if err != nil || parsed.Scheme == "" || parsed.Host == "" {
				return nil, fmt.Errorf("cluster: peer %q is not a base URL", u)
			}
		}
		if sh.Primary == "" {
			return nil, fmt.Errorf("cluster: shard %q has no primary", part)
		}
		out = append(out, sh)
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: no shards in -peers")
	}
	return out, nil
}

// Shard states. A shard starts healthy (traffic to the primary); when the
// active node misses FailThreshold consecutive liveness checks the shard
// enters failover (requests answered 503 + Retry-After while the router
// promotes the follower); a successful promote moves it to promoted
// (traffic to the follower). A shard whose active node dies with no
// follower left to promote is down; the router keeps probing its primary
// and folds it back to healthy on the first answered probe — no promotion
// happened, so the returning node is the same node with the same data, and
// a transient blip must not blackhole the shard until a router restart.
// After a PROMOTION the old primary is NOT folded back in automatically —
// re-joining a node that may have diverged is an operator decision (wipe
// its data dir and restart it as the follower).
const (
	ShardHealthy  = "healthy"
	ShardFailover = "failover"
	ShardPromoted = "promoted"
	ShardDown     = "down"
)

// RouterOptions configures the cluster front door.
type RouterOptions struct {
	Shards []Shard
	// VNodes per ring member (<=0 → 128).
	VNodes int
	// Client probes node /healthz endpoints; nil selects a 2s-timeout
	// default.
	Client *http.Client
	// ProbeInterval is the liveness cadence (default 500ms).
	ProbeInterval time.Duration
	// FailThreshold is the consecutive-miss count that triggers a failover
	// (default 2).
	FailThreshold int
	// RetryAfter is the window advertised to clients while a failover is in
	// flight (default 1s) — the retrying client pairs with it.
	RetryAfter time.Duration
	// ClusterSecret authenticates the router's promote calls to nodes
	// started with the same -cluster-secret; empty sends no credential.
	ClusterSecret string
}

// Router is the cluster's stateless front door: it owns placement (the
// consistent-hash ring over shards), proxies /v1 traffic to each session's
// active node, and drives failover. It keeps no session state of its own —
// everything it knows is reconstructed from -peers at boot — so routers can
// themselves be restarted or load-balanced freely.
type Router struct {
	ring   *Ring
	shards map[string]*shardState // keyed by primary URL (the ring member)
	order  []string               // ring member order, for stable status output
	opts   RouterOptions
	proxy  *httputil.ReverseProxy

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type shardState struct {
	mu         sync.Mutex
	cfg        Shard
	primaryURL *url.URL
	follower   *url.URL
	state      string
	misses     int
	promoting  bool
}

type ctxKey int

const (
	ctxTarget ctxKey = iota
	ctxShard
)

// NewRouter builds the router and its ring. Start launches the probe loop.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 2 * time.Second}
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 2
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	keys := make([]string, 0, len(opts.Shards))
	shards := make(map[string]*shardState, len(opts.Shards))
	for _, sh := range opts.Shards {
		if _, dup := shards[sh.Primary]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard primary %q", sh.Primary)
		}
		pu, err := url.Parse(sh.Primary)
		if err != nil {
			return nil, err
		}
		ss := &shardState{cfg: sh, primaryURL: pu, state: ShardHealthy}
		if sh.Follower != "" {
			if ss.follower, err = url.Parse(sh.Follower); err != nil {
				return nil, err
			}
		}
		shards[sh.Primary] = ss
		keys = append(keys, sh.Primary)
	}
	ring, err := NewRing(keys, opts.VNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		ring: ring, shards: shards, order: keys, opts: opts,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	r.proxy = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			t := pr.In.Context().Value(ctxTarget).(*url.URL)
			pr.SetURL(t)
			pr.Out.Host = t.Host
		},
		// Streamed label responses flow through the router; flush
		// immediately so chunk boundaries survive the hop.
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, req *http.Request, err error) {
			// A proxy failure is a liveness observation: feed it into the
			// same miss counter the probe loop uses, so a dead primary is
			// detected at request speed. But httputil routes CLIENT-side
			// aborts here too (the caller disconnected or its deadline
			// expired mid-proxy), and those say nothing about the upstream's
			// health — counting them would let two impatient clients fence a
			// perfectly healthy primary within one probe window.
			if req.Context().Err() == nil && !errors.Is(err, context.Canceled) {
				if ss, ok := req.Context().Value(ctxShard).(*shardState); ok {
					r.observe(ss, false)
				}
			}
			r.unavailable(w, "upstream unreachable: "+err.Error())
		},
	}
	return r, nil
}

// Start launches the probe/failover loop.
func (r *Router) Start() {
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				for _, key := range r.order {
					ss := r.shards[key]
					active := ss.activeURL()
					if active == nil {
						// Mid-failover the promote loop owns the shard. A down
						// shard (no follower to promote) keeps its primary
						// probed so a transient outage heals without a restart.
						if ss.isDown() && Probe(r.opts.Client, ss.primaryURL.String()) {
							ss.revive()
							log.Printf("cluster: shard %s primary answering again, back in service", ss.cfg.Primary)
						}
						continue
					}
					r.observe(ss, Probe(r.opts.Client, active.String()))
				}
			}
		}
	}()
}

// Probe performs one liveness check against a node base URL: a 200 from
// /healthz within the client's timeout.
func Probe(client *http.Client, node string) bool {
	resp, err := client.Get(strings.TrimRight(node, "/") + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Stop ends the probe loop.
func (r *Router) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// activeURL returns the node currently serving the shard, nil when the
// shard is down or mid-failover.
func (ss *shardState) activeURL() *url.URL {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch ss.state {
	case ShardHealthy:
		return ss.primaryURL
	case ShardPromoted:
		return ss.follower
	}
	return nil
}

func (ss *shardState) isDown() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.state == ShardDown
}

// revive puts a down shard back in service against its configured primary.
// Safe because a shard only reaches down with no follower promoted: the
// answering node is the same node with the same data.
func (ss *shardState) revive() {
	ss.mu.Lock()
	ss.state = ShardHealthy
	ss.misses = 0
	ss.mu.Unlock()
}

// observe folds one liveness observation of a shard's active node in, and
// triggers the failover state machine on threshold.
func (r *Router) observe(ss *shardState, ok bool) {
	ss.mu.Lock()
	if ok {
		ss.misses = 0
		ss.mu.Unlock()
		return
	}
	ss.misses++
	trigger := ss.misses >= r.opts.FailThreshold && ss.state == ShardHealthy
	if trigger {
		if ss.follower == nil {
			ss.state = ShardDown
			log.Printf("cluster: shard %s down (no follower to promote)", ss.cfg.Primary)
			trigger = false
		} else {
			ss.state = ShardFailover
			log.Printf("cluster: shard %s primary unreachable, failing over to %s", ss.cfg.Primary, ss.cfg.Follower)
		}
	}
	startPromote := trigger && !ss.promoting
	if startPromote {
		ss.promoting = true
	}
	ss.mu.Unlock()
	if startPromote {
		go r.promote(ss)
	}
}

// promote drives one shard's failover: ask the follower to promote itself,
// retrying on the probe cadence until it answers or the router stops. The
// shard serves 503 + Retry-After for the duration; the promote call itself
// is idempotent on the follower, so a retried request is harmless.
func (r *Router) promote(ss *shardState) {
	for attempt := 0; ; attempt++ {
		select {
		case <-r.stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ss.cfg.Follower+"/v1/replication/promote", nil)
		if err == nil {
			if r.opts.ClusterSecret != "" {
				req.Header.Set(api.HeaderClusterSecret, r.opts.ClusterSecret)
			}
			var resp *http.Response
			if resp, err = r.opts.Client.Do(req); err == nil {
				var pr api.PromoteResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					cancel()
					ss.mu.Lock()
					ss.state = ShardPromoted
					ss.misses = 0
					ss.promoting = false
					ss.mu.Unlock()
					if decodeErr == nil {
						log.Printf("cluster: shard %s promoted %s (%d sessions warm)", ss.cfg.Primary, ss.cfg.Follower, pr.Promoted)
					} else {
						log.Printf("cluster: shard %s promoted %s", ss.cfg.Primary, ss.cfg.Follower)
					}
					return
				}
				err = fmt.Errorf("follower answered %d", resp.StatusCode)
			}
		}
		cancel()
		log.Printf("cluster: shard %s promote attempt %d: %v", ss.cfg.Primary, attempt+1, err)
		select {
		case <-r.stop:
			return
		case <-time.After(r.opts.ProbeInterval):
		}
	}
}

// Handler returns the router's HTTP front door.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/cluster/status", r.status)
	mux.HandleFunc("POST /v1/sessions", r.createSession)
	mux.HandleFunc("/v1/sessions/{id}", r.sessionTraffic)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", r.sessionTraffic)
	mux.HandleFunc("/", r.defaultTraffic)
	return mux
}

// status reports every shard's placement and failover state.
func (r *Router) status(w http.ResponseWriter, _ *http.Request) {
	resp := api.RouterStatusResponse{Shards: r.Status()}
	sort.Slice(resp.Shards, func(a, b int) bool { return resp.Shards[a].Primary < resp.Shards[b].Primary })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// createSession places a new session: the router mints the id (so placement
// precedes creation), maps it onto a shard through the ring, and forwards
// the request with the id pinned in a header the serving node honors.
func (r *Router) createSession(w http.ResponseWriter, req *http.Request) {
	id := req.Header.Get(api.HeaderSessionID)
	if id == "" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			http.Error(w, "id generation failed", http.StatusInternalServerError)
			return
		}
		id = "c" + hex.EncodeToString(buf[:])
	}
	req.Header.Set(api.HeaderSessionID, id)
	r.forward(w, req, id)
}

// sessionTraffic routes every per-session request by the id in the path.
func (r *Router) sessionTraffic(w http.ResponseWriter, req *http.Request) {
	r.forward(w, req, req.PathValue("id"))
}

// defaultTraffic handles requests that carry no session id (session list,
// metrics, tenant usage). They are forwarded to the first shard — a
// documented single-shard convenience; with multiple shards these
// node-local views are per-shard and callers should query nodes directly.
func (r *Router) defaultTraffic(w http.ResponseWriter, req *http.Request) {
	r.proxyTo(w, req, r.shards[r.order[0]])
}

func (r *Router) forward(w http.ResponseWriter, req *http.Request, id string) {
	owner, _ := r.ring.Lookup(id)
	r.proxyTo(w, req, r.shards[owner])
}

func (r *Router) proxyTo(w http.ResponseWriter, req *http.Request, ss *shardState) {
	target := ss.activeURL()
	if target == nil {
		r.unavailable(w, "shard failing over")
		return
	}
	ctx := context.WithValue(req.Context(), ctxTarget, target)
	ctx = context.WithValue(ctx, ctxShard, ss)
	r.proxy.ServeHTTP(w, req.WithContext(ctx))
}

// unavailable answers 503 with the Retry-After the retrying client honors.
func (r *Router) unavailable(w http.ResponseWriter, msg string) {
	secs := int(r.opts.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(api.ErrorResponse{Error: api.ErrorBody{
		Code:    api.CodeUnavailable,
		Message: msg,
	}})
}

// Status returns the shard table for tests and the status endpoint.
func (r *Router) Status() []api.ShardStatus {
	resp := make([]api.ShardStatus, 0, len(r.order))
	for _, key := range r.order {
		ss := r.shards[key]
		ss.mu.Lock()
		st := api.ShardStatus{Primary: ss.cfg.Primary, Follower: ss.cfg.Follower, State: ss.state}
		switch ss.state {
		case ShardHealthy:
			st.Active = ss.cfg.Primary
		case ShardPromoted:
			st.Active = ss.cfg.Follower
		}
		ss.mu.Unlock()
		resp = append(resp, st)
	}
	return resp
}

// Place reports which shard primary a session id maps to (for tests and
// operational tooling).
func (r *Router) Place(id string) string {
	owner, _ := r.ring.Lookup(id)
	return owner
}
