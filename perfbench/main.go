// Command perfbench is adawave's end-to-end and per-layer benchmark. It runs
// one named workload for a fixed time, checks the program's outputs, and
// prints every metric BENCHMARK.json names for that mode as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload batch-noisy-2d --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1 is a
// separate run that records one span per layer call and reports the
// per-layer metrics. The line before the result is a record of the run
// (host fingerprint, source digest, sample counts, checks) that
// "perfbench compare" reads. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// minReplays is the fewest traced replays a --trace 1 run makes.
	minReplays = 3
	// memReps is how many untimed calls a batch run makes to read a call's
	// resident peak; peak_rss_mib is the median.
	memReps = 3
)

// workload is one benchmark workload: it sets up, measures for env.seconds
// and checks its outputs.
type workload interface {
	run(ctx context.Context, env *runEnv) (*outcome, error)
}

var workloads = map[string]workload{
	"batch-noisy-2d":       batchNoisy2D,
	"highdim-embed":        highdimEmbed,
	"serve-sliding-window": serveSlidingWindow,
	"external-spill":       externalSpill,
}

// runEnv is what a workload gets from the command line and the checkout.
type runEnv struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// bin holds the built adawave-serve and adawave-router; dir is this
	// run's scratch directory, removed when the run ends.
	bin    string
	dir    string
	expect expectations
}

// maxOverrun is how far past --seconds a run keeps measuring to collect
// the samples a reported percentile needs.
func (e *runEnv) maxOverrun() time.Duration { return e.seconds }

// outcome is what a workload measured and checked.
type outcome struct {
	metrics map[string]float64
	// named holds the workload's own figures with their sample counts,
	// under the names the workload's documentation uses.
	named  map[string]any
	checks map[string]*checkResult
	tally  tally
}

type checkResult struct {
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	First  string `json:"first_failure,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, named: map[string]any{}, checks: map[string]*checkResult{}}
}

func (o *outcome) setMetric(name string, v float64) { o.metrics[name] = v }

// check records one evaluation of a named output check; err == nil passes.
func (o *outcome) check(name string, err error) {
	c := o.checks[name]
	if c == nil {
		c = &checkResult{}
		o.checks[name] = c
	}
	if err == nil {
		c.Passed++
		return
	}
	c.Failed++
	if c.First == "" {
		c.First = err.Error()
	}
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if c.Failed > 0 {
			return false
		}
	}
	return len(o.checks) > 0
}

// metricValue is one entry of the result line's metrics.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the line before the result: everything needed to interpret and
// compare it.
type record struct {
	Workload string                  `json:"workload"`
	Seed     int64                   `json:"seed"`
	Seconds  float64                 `json:"seconds"`
	Trace    bool                    `json:"trace"`
	Host     host                    `json:"host"`
	Source   string                  `json:"source"`
	Named    map[string]any          `json:"named"`
	Checks   map[string]*checkResult `json:"checks"`
	Absent   []string                `json:"absent,omitempty"`
	Result   result                  `json:"result"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "record":
			return recordMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 records per-layer spans and reports the per_layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := execute(w, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var errIncorrect = errors.New("an output check failed")

// execute runs one workload from the checkout root and prints its record
// and result lines.
func execute(w workload, name string, seed int64, seconds int, trace bool) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	expect, err := loadExpectations(expectationsPath)
	if err != nil {
		return err
	}
	source, err := sourceDigest(".")
	if err != nil {
		return err
	}
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return fmt.Errorf("run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	env := &runEnv{
		workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace,
		bin: filepath.Join(base, "bin"), dir: dir, expect: expect,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := w.run(ctx, env)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	res, absent, err := report(spec, out, trace)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if out.tally.firstErr != nil {
		out.named["first_error"] = out.tally.firstErr.Error()
	}
	rec := record{Workload: name, Seed: seed, Seconds: float64(seconds), Trace: trace,
		Host: currentHost(), Source: source, Named: out.named, Checks: out.checks, Absent: absent, Result: res}
	for _, v := range []any{map[string]record{"record": rec}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// report builds a finished run's result: every end-to-end metric of the
// spec in an untraced run, every per-layer metric in a traced one. A layer
// the workload does not enter reports 0 and is returned in absent. The
// result is correct only if every output check passed.
func report(spec *benchSpec, out *outcome, trace bool) (res result, absent []string, err error) {
	res = result{Correct: out.correct(), Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = out.tally.attempted, out.tally.failed
	if res.Attempted < 1 {
		return res, nil, errors.New("no operation attempted")
	}
	if trace {
		for _, m := range spec.PerLayer {
			v, ok := out.metrics[m.Name]
			if !ok {
				absent = append(absent, m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		return res, absent, nil
	}
	out.setMetric("success_rate", 1-out.tally.errorRate())
	for _, m := range spec.EndToEnd {
		v, ok := out.metrics[m.Name]
		if !ok {
			return res, nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil, nil
}

// benchSpec is the part of BENCHMARK.json this program reads: the metric
// names and units each mode must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}
