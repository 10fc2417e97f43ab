package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"adawave"
	"adawave/internal/metrics"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// batchWorkload is a closed loop of one-shot clustering calls over one
// generated dataset, on one connection: the next call starts when the
// previous one returned.
type batchWorkload struct {
	opts []adawave.Option
	// tail is the percentile reported as labels_tail_ms.
	tail float64
	// ext, when set, runs the out-of-core path over a mapped file.
	ext *adawave.ExternalOptions
	// gen builds the inputs for a seed: the dataset in memory, or the
	// mapped file at path when ext is set.
	gen func(seed int64, path string) (*pointset.Dataset, error)
	// truth recomputes the ground-truth labels for a seed after the timed
	// phase, checking them against the clustered rows; nil where the
	// generator has no ground truth.
	truth func(seed int64, ds *pointset.Dataset) ([]int, error)
}

var (
	batchNoisy2D = &batchWorkload{
		tail: 75,
		gen: func(seed int64, _ string) (*pointset.Dataset, error) {
			return synth.Evaluation(100_000, 0.75, seed).Flat(), nil
		},
		truth: func(seed int64, ds *pointset.Dataset) ([]int, error) {
			return labeledTruth(synth.Evaluation(100_000, 0.75, seed), ds)
		},
	}
	highdimEmbed = &batchWorkload{
		opts: []adawave.Option{adawave.WithEmbedding(adawave.PCA(4)), adawave.WithScale(64)},
		tail: 75,
		gen: func(seed int64, _ string) (*pointset.Dataset, error) {
			return synth.HighDimMixture(8, 25_000, 64, 4, 0.5, seed).Flat(), nil
		},
		truth: func(seed int64, ds *pointset.Dataset) ([]int, error) {
			return labeledTruth(synth.HighDimMixture(8, 25_000, 64, 4, 0.5, seed), ds)
		},
	}
	externalSpill = &batchWorkload{
		tail: 75,
		ext:  &adawave.ExternalOptions{MaxResidentBytes: 256 << 20, ChunkPoints: 2_000_000, SpillBytes: 8 << 20},
		gen:  writeMixtureFile,
	}
)

// The external-spill mixture: synth.StreamMixture(10M, dim 2, k 6, noise 0.3).
const (
	mixtureN     = 10_000_000
	mixtureDim   = 2
	mixtureK     = 6
	mixtureNoise = 0.3
)

func writeMixtureFile(seed int64, path string) (*pointset.Dataset, error) {
	w, err := adawave.CreateMappedDataset(path, mixtureDim)
	if err != nil {
		return nil, err
	}
	if err := synth.StreamMixture(mixtureN, mixtureDim, mixtureK, mixtureNoise, seed, w.AppendRow); err != nil {
		w.Close()
		return nil, err
	}
	return nil, w.Close()
}

// labeledTruth returns the generator's labels after checking that its rows
// are the rows being clustered.
func labeledTruth(src *synth.Dataset, ds *pointset.Dataset) ([]int, error) {
	if src.N() != ds.N {
		return nil, fmt.Errorf("truth: %d generated rows, %d clustered", src.N(), ds.N)
	}
	for i, p := range src.Points {
		row := ds.Row(i)
		for j := range p {
			if p[j] != row[j] {
				return nil, fmt.Errorf("truth: row %d differs from the generator's", i)
			}
		}
	}
	return src.Labels, nil
}

// call is one clustering call of the workload; ext is the workload's
// external options with the run's spill directory, nil in RAM.
func call(ctx context.Context, c *adawave.Clusterer, ds *pointset.Dataset, ext *adawave.ExternalOptions) (*adawave.Result, error) {
	if ext != nil {
		return c.ClusterDatasetExternalOptions(ctx, ds, *ext)
	}
	return c.ClusterDatasetContext(ctx, ds)
}

// open returns the dataset a clustering call reads: the in-memory rows, or
// a fresh view of the mapped file.
func (w *batchWorkload) open(ds *pointset.Dataset, path string) (*pointset.Dataset, func(), error) {
	if w.ext == nil {
		return ds, func() {}, nil
	}
	m, err := adawave.OpenMappedDataset(path)
	if err != nil {
		return nil, nil, err
	}
	return m.Dataset(), func() { m.Close() }, nil
}

func (w *batchWorkload) run(ctx context.Context, env *runEnv) (*outcome, error) {
	out := newOutcome()
	path := filepath.Join(env.dir, "mixture.awds")
	t0 := time.Now()
	src, err := w.gen(env.seed, path)
	out.named["generate_s"] = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	var ext *adawave.ExternalOptions
	if w.ext != nil {
		defer os.Remove(path)
		opts := *w.ext
		opts.TempDir = env.dir
		ext = &opts
	}

	// Set-up: open the input, build a clusterer and run the first (cold)
	// call, repeated; the last clusterer and input serve the timed loop.
	// Every repetition starts from a collected heap with its free pages
	// returned to the system, so each pays the same cold-start costs
	// instead of depending on what the collector left from the last one.
	var (
		c       *adawave.Clusterer
		ds      *pointset.Dataset
		closeDS = func() {}
		ref     []int
		setups  []float64
	)
	defer func() { closeDS() }()
	reps := setupReps
	if env.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		closeDS()
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		ds, closeDS, err = w.open(src, path)
		if err != nil {
			return nil, fmt.Errorf("open input: %w", err)
		}
		if c, err = adawave.New(w.opts...); err != nil {
			return nil, err
		}
		res, err := call(ctx, c, ds, ext)
		if err != nil {
			return nil, fmt.Errorf("set-up call: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ref == nil {
			ref = res.Labels
		} else {
			out.check("labels identical across calls", equalLabels(ref, res.Labels))
		}
	}
	out.setMetric("setup_s", median(setups))
	out.named["setup_reps_s"] = setups

	flushWriteback()
	if env.trace {
		err = traceRun(ctx, env, out, c, ds, ext, ref)
	} else {
		err = w.measure(ctx, env, out, c, ds, ext, ref)
	}
	if err != nil {
		return nil, err
	}

	// Output checks, outside the timed phase.
	t0 = time.Now()
	defer func() { out.named["checks_s"] = time.Since(t0).Seconds() }()
	var ami *float64
	if w.truth != nil {
		truth, err := w.truth(env.seed, ds)
		if err != nil {
			out.check("ground truth", err)
			return out, nil
		}
		v := metrics.AMI(truth, ref)
		ami = &v
		out.named["ami"] = v
	}
	if err := env.expect.check(env.workload, env.seed, ref, ami); errors.Is(err, errUnrecorded) {
		out.named["recorded_check"] = "skipped: " + err.Error()
	} else {
		out.check("labels and ami equal the values recorded for the seed", err)
	}
	if ext != nil {
		inRAM, err := adawave.New(w.opts...)
		if err != nil {
			return nil, err
		}
		res, err := inRAM.ClusterDatasetContext(ctx, ds)
		if err != nil {
			out.check("external labels equal in-RAM labels", err)
		} else {
			out.check("external labels equal in-RAM labels", equalLabels(ref, res.Labels))
		}
	}
	return out, nil
}

// measure is an untraced run's timed closed loop: calls until --seconds
// have passed and the tail percentile has enough samples beyond it.
func (w *batchWorkload) measure(ctx context.Context, env *runEnv, out *outcome, c *adawave.Clusterer, ds *pointset.Dataset, ext *adawave.ExternalOptions, ref []int) error {
	need := minSamples(w.tail)
	lat := &latencies{}
	deadline := time.Now().Add(env.seconds)
	for time.Now().Before(deadline) || lat.count() < need {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline.Add(env.maxOverrun())) {
			break
		}
		t0 := time.Now()
		res, err := call(ctx, c, ds, ext)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		out.tally.record(err)
		if err != nil {
			continue
		}
		lat.add(ms)
		out.check("labels identical across calls", equalLabels(ref, res.Labels))
	}

	// The resident peak of a call, from a few more untimed calls that each
	// start from a collected heap with the high-water mark reset: starting
	// from the same heap state makes the peak depend on what the call
	// allocates, not on where the collector happened to stand.
	var peaks []float64
	for i := 0; i < memReps; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(0); err != nil {
			return err
		}
		res, err := call(ctx, c, ds, ext)
		out.tally.record(err)
		if err != nil {
			continue
		}
		peak, err := peakRSSMiB(0)
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		out.check("labels identical across calls", equalLabels(ref, res.Labels))
	}
	out.setMetric("peak_rss_mib", median(peaks))
	sorted := lat.sorted()
	p50, err := percentile(sorted, 50)
	out.check("p50 sample count", err)
	tail, err := percentile(sorted, w.tail)
	out.check(fmt.Sprintf("p%g sample count", w.tail), err)
	out.setMetric("labels_p50_ms", p50.Ms)
	out.setMetric("labels_tail_ms", tail.Ms)
	out.setMetric("points_per_s", float64(ds.N)/(p50.Ms/1e3))
	out.named["cluster_p50_ms"] = p50
	out.named[fmt.Sprintf("cluster_p%g_ms", w.tail)] = tail
	return nil
}

// traceRun is a --trace 1 run's loop. Each round times one untraced
// engine call, then replays the same clustering stage by stage through the
// exported layer calls with a span around each, and checks the replay's
// labels against the engine's. Alternating the two keeps both under the
// same host conditions, so the stages' share of the untraced call compares
// like with like.
func traceRun(ctx context.Context, env *runEnv, out *outcome, c *adawave.Clusterer, ds *pointset.Dataset, ext *adawave.ExternalOptions, ref []int) error {
	cfg := c.Config()
	workers := runtime.GOMAXPROCS(0)
	tr := newTracer()
	var (
		untraced []float64
		cnt      replayCounts
	)
	deadline := time.Now().Add(env.seconds)
	for op := int64(0); op < minReplays || time.Now().Before(deadline); op++ {
		t0 := time.Now()
		res, err := call(ctx, c, ds, ext)
		out.tally.record(err)
		if err != nil {
			return fmt.Errorf("engine call: %w", err)
		}
		untraced = append(untraced, float64(time.Since(t0).Nanoseconds())/1e6)
		out.check("labels identical across calls", equalLabels(ref, res.Labels))

		labels, n, err := replayCluster(ctx, tr, op, cfg, workers, ds, ext)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		cnt = n
		out.check("replayed labels equal the engine's", equalLabels(ref, labels))
	}
	self := tr.selfMs()
	for name, metric := range map[string]string{
		spanEmbedFit:  "embed.fit_ms",
		spanEmbedProj: "embed.project_ms",
		spanQuantize:  "grid.quantize_ms",
		spanExtsort:   "grid.extsort_ms",
		spanTransform: "grid.transform_ms",
		spanThreshold: "core.threshold_ms",
		spanConnect:   "grid.connect_ms",
		spanAssign:    "grid.assign_ms",
	} {
		if v, ok := self[name]; ok {
			out.setMetric(metric, median(v))
		}
	}
	out.setMetric("grid.cells_quantized", float64(cnt.cellsQuantized))
	out.setMetric("grid.cells_transformed", float64(cnt.cellsTransformed))
	out.setMetric("core.cells_kept", float64(cnt.cellsKept))
	out.setMetric("grid.components", float64(cnt.components))

	// The stage self times of a replayed call, summed, over the untraced
	// median call: the share of cluster_p50_ms the stages account for.
	stages := make([]float64, len(self[spanCall]))
	for name, v := range self {
		if name == spanCall {
			continue
		}
		for i := range v {
			stages[i] += v[i]
		}
	}
	out.setMetric("trace.coverage_pct", 100*median(stages)/median(untraced))
	out.named["trace.untraced_cluster_p50_ms"] = median(untraced)
	out.named["trace.traced_cluster_p50_ms"] = median(tr.totalMs()[spanCall])
	return env.finishTrace(out, tr)
}

func equalLabels(want, got []int) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d labels, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("label %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
