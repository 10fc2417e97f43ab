package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adawave/client"
	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/metrics"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// serveWorkload is serve-sliding-window: adawave-router in front of one
// shard, an adawave-serve primary with a follower, each on its own fresh
// data directory with -wal-sync always. One session holds a window of
// windowRows rows; a closed loop over two connections from this process
// slides it (a writer appends the stepRows newest rows, then removes the
// stepRows oldest) while a reader fetches labels.
type serveWorkload struct{}

var serveSlidingWindow = &serveWorkload{}

const (
	windowRows = 50_000
	stepRows   = 500
	seedChunk  = 10_000
	// sourcePerCluster sizes the row source: synth.Evaluation(25000, 0.75)
	// is 500k rows, shuffled by the seed and cycled through.
	sourcePerCluster = 25_000
	// labelsTail is the percentile reported as labels_tail_ms, and
	// writeTail the one reported for appends and removes. A 20-second run
	// has about 600 reads and 1500 of each write; p95 and p99 of the reads
	// moved by a fifth between runs on a shared 2-CPU host, p90 less.
	labelsTail = 90
	writeTail  = 99
)

// proc is one child process of the deployment.
type proc struct {
	cmd *exec.Cmd
	log *os.File
}

func startProc(dir, name, bin string, args ...string) (*proc, error) {
	f, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{cmd: cmd, log: f}, nil
}

// stop asks the process to shut down, kills it if it has not exited within
// ten seconds, and waits for it.
func (p *proc) stop() {
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
	p.log.Close()
}

// deployment is one fresh router + primary + follower set.
type deployment struct {
	dir                       string
	procs                     []*proc
	primary, follower, router string // base URLs
	hc                        *http.Client
	cl                        *client.Client
	id                        string
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// deploy starts the three processes on fresh data directories and waits
// until each answers /healthz.
func deploy(ctx context.Context, env *runEnv, i int) (d *deployment, err error) {
	d = &deployment{dir: filepath.Join(env.dir, fmt.Sprintf("cluster-%d", i)), hc: &http.Client{}}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return d, err
	}
	var addrs [3]string
	for j := range addrs {
		if addrs[j], err = freeAddr(); err != nil {
			return d, err
		}
	}
	d.primary, d.follower, d.router = "http://"+addrs[0], "http://"+addrs[1], "http://"+addrs[2]
	serve, router := filepath.Join(env.bin, "adawave-serve"), filepath.Join(env.bin, "adawave-router")
	for _, p := range []struct {
		name, bin string
		args      []string
	}{
		{"primary", serve, []string{"-addr", addrs[0], "-role", "primary", "-data-dir", filepath.Join(d.dir, "primary"), "-wal-sync", "always", "-peers", d.follower}},
		{"follower", serve, []string{"-addr", addrs[1], "-role", "follower", "-follower-of", d.primary, "-data-dir", filepath.Join(d.dir, "follower"), "-wal-sync", "always"}},
		{"router", router, []string{"-addr", addrs[2], "-peers", d.primary + "=" + d.follower}},
	} {
		pr, err := startProc(d.dir, p.name, p.bin, p.args...)
		if err != nil {
			return d, err
		}
		d.procs = append(d.procs, pr)
	}
	for _, u := range []string{d.primary, d.follower, d.router} {
		if err := waitHealthy(ctx, d.hc, u); err != nil {
			return d, err
		}
	}
	d.cl = client.New(d.router, client.WithHTTPClient(d.hc))
	return d, nil
}

// stop shuts the processes down, router first, and removes their data.
func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
	d.procs = nil
	d.hc.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

func waitHealthy(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy", base)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (d *deployment) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// lag returns how many WAL records of the session the follower has not
// applied yet: the primary's WAL sequence minus the follower's applied one.
func (d *deployment) lag(ctx context.Context) (uint64, error) {
	var p, f api.ReplicationStatusResponse
	if err := d.getJSON(ctx, d.primary+"/v1/replication/status", &p); err != nil {
		return 0, err
	}
	if err := d.getJSON(ctx, d.follower+"/v1/replication/status", &f); err != nil {
		return 0, err
	}
	ps, ok := p.Sessions[d.id]
	if !ok {
		return 0, fmt.Errorf("primary does not list session %s", d.id)
	}
	fs, ok := f.Sessions[d.id]
	switch {
	case !ok:
		return ps.AppliedSeq, nil
	case fs.AppliedSeq >= ps.AppliedSeq:
		// The follower may have moved on between the two reads.
		return 0, nil
	}
	return ps.AppliedSeq - fs.AppliedSeq, nil
}

// waitCaughtUp polls until the follower has applied every record the
// primary logged, and returns how long that took.
func (d *deployment) waitCaughtUp(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	for {
		n, err := d.lag(ctx)
		if err == nil && n == 0 {
			return time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("follower still %d records behind after 30s (%v)", n, err)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// routeMeans returns each route's mean server-side latency between two
// /v1/metrics snapshots of the primary.
func routeMeans(before, after *api.MetricsResponse) map[string]float64 {
	out := map[string]float64{}
	for name, a := range after.Routes {
		b := before.Routes[name]
		if n := a.Requests - b.Requests; n > 0 {
			out[name] = (a.TotalMs - b.TotalMs) / float64(n)
		}
	}
	return out
}

// rowSource is the cyclic row stream the window slides over.
type rowSource struct {
	rows   [][]float64
	labels []int
}

func newRowSource(seed int64) *rowSource {
	ds := synth.Evaluation(sourcePerCluster, 0.75, seed)
	ds.Shuffle(seed)
	return &rowSource{rows: ds.Points, labels: ds.Labels}
}

// slice returns n rows starting at absolute position off, wrapping.
func (s *rowSource) slice(off, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = s.rows[(off+i)%len(s.rows)]
	}
	return out
}

func (s *rowSource) truth(off, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.labels[(off+i)%len(s.labels)]
	}
	return out
}

// removeHead is the index list of one step's removal: the oldest rows.
var removeHead = func() []int {
	idx := make([]int, stepRows)
	for i := range idx {
		idx[i] = i
	}
	return idx
}()

// setUp deploys, creates the session, seeds the window and waits until the
// first labels are served and the follower has caught up.
func setUp(ctx context.Context, env *runEnv, src *rowSource, i int) (*deployment, error) {
	d, err := deploy(ctx, env, i)
	if err != nil {
		return nil, err
	}
	if err := d.seed(ctx, src); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *deployment) seed(ctx context.Context, src *rowSource) error {
	id, err := d.cl.CreateSession(ctx, nil)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	d.id = id
	for off := 0; off < windowRows; off += seedChunk {
		if _, err := d.cl.Append(ctx, id, src.slice(off, seedChunk)); err != nil {
			return fmt.Errorf("seed window: %w", err)
		}
	}
	if _, err := d.cl.Labels(ctx, id); err != nil {
		return fmt.Errorf("first labels: %w", err)
	}
	_, err = d.waitCaughtUp(ctx)
	return err
}

// opKind is one client operation of the timed loop, in completion order;
// the traced run replays the sequence in process.
type opKind byte

const (
	opAppend opKind = 'a'
	opRemove opKind = 'r'
	opLabels opKind = 'l'
)

// loadResult is what the timed loop measured.
type loadResult struct {
	appendLat, removeLat, labelsLat latencies
	ops                             []opKind
	steps                           int
	elapsed                         time.Duration
	lagSamples                      []float64
}

func (w *serveWorkload) run(ctx context.Context, env *runEnv) (*outcome, error) {
	out := newOutcome()
	src := newRowSource(env.seed)

	var setups []float64
	var d *deployment
	reps := setupReps
	if env.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = setUp(ctx, env, src, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	out.setMetric("setup_s", median(setups))
	flushWriteback()
	primaryPID := d.procs[0].cmd.Process.Pid
	if err := resetPeakRSS(primaryPID); err != nil {
		return nil, err
	}
	var tr *tracer
	seconds := env.seconds
	if env.trace {
		tr = newTracer()
		seconds /= 2
	}
	before, err := client.New(d.primary, client.WithHTTPClient(d.hc)).Metrics(ctx)
	if err != nil {
		return nil, err
	}
	lr := d.load(ctx, env, out, src, tr, seconds)
	after, err := client.New(d.primary, client.WithHTTPClient(d.hc)).Metrics(ctx)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMiB(primaryPID)
	if err != nil {
		return nil, err
	}
	catchup, err := d.waitCaughtUp(ctx)
	out.check("follower lag 0 at the end", err)

	out.setMetric("peak_rss_mib", peak)
	pcts, means := map[string]pct{}, map[string]float64{}
	for _, c := range []struct {
		name string
		lat  *latencies
		tail float64
	}{{"append", &lr.appendLat, writeTail}, {"remove", &lr.removeLat, writeTail}, {"labels", &lr.labelsLat, labelsTail}} {
		sorted := c.lat.sorted()
		for _, p := range []float64{50, c.tail} {
			v, err := percentile(sorted, p)
			if !env.trace {
				out.check(fmt.Sprintf("%s p%g sample count", c.name, p), err)
			}
			key := fmt.Sprintf("%s_p%g_ms", c.name, p)
			pcts[key] = v
			out.named[key] = v
		}
		means[c.name] = mean(sorted)
		out.named[c.name+"_mean_ms"] = means[c.name]
	}
	writesPerS := float64(2*lr.steps) / lr.elapsed.Seconds()
	out.named["writes_per_s"] = writesPerS
	out.named["catchup_ms"] = float64(catchup.Nanoseconds()) / 1e6
	out.setMetric("labels_p50_ms", pcts["labels_p50_ms"].Ms)
	out.setMetric("labels_tail_ms", pcts[fmt.Sprintf("labels_p%d_ms", labelsTail)].Ms)
	// points_per_s is, as on the batch workloads, the rows one clustering
	// call labels over its median time: here the window over labels_p50_ms.
	// The writer's rate is in the record (writes_per_s, append and remove
	// percentiles) but not a gated metric: a write step beside the reader
	// either waits for a fold the reader holds the session for or does not,
	// so it swings with the host's speed two to three times as much as a
	// read does, and ten runs of the same code spread by 20-40%.
	if ms := pcts["labels_p50_ms"].Ms; ms > 0 {
		out.setMetric("points_per_s", windowRows/(ms/1e3))
	}

	// Output checks, outside the timed phase: the served labels of the final
	// window equal a one-shot clustering of exactly those rows.
	off := stepRows * lr.steps
	res, err := d.cl.Labels(ctx, d.id)
	if err != nil {
		out.check("final labels equal a one-shot clustering of the window", err)
		return out, nil
	}
	want, err := oneShot(ctx, src.slice(off, windowRows))
	if err != nil {
		return nil, err
	}
	out.check("final labels equal a one-shot clustering of the window", equalLabels(want, res.Labels))
	out.named["ami"] = metrics.AMI(src.truth(off, windowRows), res.Labels)

	if env.trace {
		server := routeMeans(before, after)
		out.setMetric("serve.append_ms", server["append_points"])
		out.setMetric("serve.remove_ms", server["remove_points"])
		out.setMetric("serve.labels_ms", server["labels"])
		out.setMetric("transport.append_ms", means["append"]-server["append_points"])
		out.setMetric("transport.labels_ms", means["labels"]-server["labels"])
		out.setMetric("cluster.catchup_ms", float64(catchup.Nanoseconds())/1e6)
		if len(lr.lagSamples) > 0 {
			out.setMetric("cluster.replication_lag_p50_records", median(lr.lagSamples))
			var mx float64
			for _, v := range lr.lagSamples {
				mx = max(mx, v)
			}
			out.setMetric("cluster.replication_lag_max_records", mx)
		}
		if err := replayServe(ctx, env, out, tr, src, lr.ops, pcts); err != nil {
			return nil, err
		}
		if err := env.finishTrace(out, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// load runs the timed closed loop: the writer and the reader each on their
// own connection (one connection taking turns on a single-CPU host), until
// the time is up and every reported percentile has its samples.
func (d *deployment) load(ctx context.Context, env *runEnv, out *outcome, src *rowSource, tr *tracer, seconds time.Duration) *loadResult {
	lr := &loadResult{}
	var (
		stop   atomic.Bool
		mu     sync.Mutex
		nextOp atomic.Int64
		wg     sync.WaitGroup
	)
	timed := func(kind opKind, lat *latencies, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		out.tally.record(err)
		if err != nil {
			return err
		}
		lat.add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)
		mu.Lock()
		lr.ops = append(lr.ops, kind)
		mu.Unlock()
		if tr != nil {
			tr.add("client."+string(kind), nextOp.Add(1), -1, t0, t1)
		}
		return nil
	}
	readOnce := func() error {
		return timed(opLabels, &lr.labelsLat, func() error {
			_, err := d.cl.Labels(ctx, d.id)
			return err
		})
	}
	single := runtime.NumCPU() < 2
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			rows := src.slice(stepRows*lr.steps+windowRows, stepRows)
			if timed(opAppend, &lr.appendLat, func() error {
				_, err := d.cl.Append(ctx, d.id, rows)
				return err
			}) != nil {
				return
			}
			if timed(opRemove, &lr.removeLat, func() error {
				_, err := d.cl.Remove(ctx, d.id, removeHead)
				return err
			}) != nil {
				return
			}
			lr.steps++
			if single {
				readOnce()
			}
		}
	}()
	if !single {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				readOnce()
			}
		}()
	}
	needWrites, needReads := minSamples(writeTail), minSamples(labelsTail)
	if env.trace {
		needWrites, needReads = 0, 0
	}
	deadline := t0.Add(seconds)
	for {
		if env.trace {
			// Replication lag is sampled only in the traced run: the polls
			// compete with the load for the CPUs.
			if n, err := d.lag(ctx); err == nil {
				lr.lagSamples = append(lr.lagSamples, float64(n))
			}
		}
		time.Sleep(50 * time.Millisecond)
		now := time.Now()
		enough := lr.appendLat.count() >= needWrites && lr.removeLat.count() >= needWrites && lr.labelsLat.count() >= needReads
		if ctx.Err() != nil || (now.After(deadline) && enough) || now.After(deadline.Add(env.maxOverrun())) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	lr.elapsed = time.Since(t0)
	return lr
}

// oneShot clusters rows in process with the default configuration — what
// the session's incremental folds must reproduce bit for bit.
func oneShot(ctx context.Context, rows [][]float64) ([]int, error) {
	ds, err := pointset.FromSlices(rows)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(core.DefaultConfig(), 0)
	if err != nil {
		return nil, err
	}
	res, err := eng.ClusterDatasetContext(ctx, ds)
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}
