package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// exported function it calls. Spans of one operation share Op; Parent is
// the index of the enclosing span, or -1 for the operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run writes them out. It
// is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op int64, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// selfMs returns, per span name, the per-operation self time in
// milliseconds: a span's duration minus the part its children cover,
// summed over the operation's spans of that name. Operations are listed in
// the order their first span of the name was opened.
func (t *tracer) selfMs() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name string
		op   int64
	}
	sums := map[key]int64{}
	var order []key
	for i, s := range t.spans {
		k := key{s.Name, s.Op}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += s.End - s.Start - child[i]
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], float64(sums[k])/1e6)
	}
	return out
}

// totalMs returns, per span name, every span's full duration in
// milliseconds, children included.
func (t *tracer) totalMs() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// writeJSONL writes every span, one JSON object a line, to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// finishTrace writes a traced run's spans to .bench_build/traces/ and
// reports the span count and the tracing overhead: the recorder's own cost
// per span, measured here, times the spans recorded, as a share of the
// traced phase's wall time.
func (e *runEnv) finishTrace(out *outcome, tr *tracer) error {
	path := filepath.Join(filepath.Dir(e.bin), "traces", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	n := tr.count()
	out.setMetric("trace.spans", float64(n))
	out.setMetric("trace.overhead_pct", 100*float64(n)*spanCostNs()/float64(tr.wallNs()))
	out.named["trace.file"] = filepath.Join(".bench_build", "traces", filepath.Base(path))
	return nil
}

// wallNs is the time from the first span's start to the last span's end.
func (t *tracer) wallNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return 1
	}
	lo, hi := t.spans[0].Start, t.spans[0].End
	for _, s := range t.spans {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	return max(hi-lo, 1)
}

// spanCostNs measures what recording one span costs.
func spanCostNs() float64 {
	const k = 100_000
	tr := newTracer()
	tr.spans = make([]span, 0, k)
	t0 := time.Now()
	for i := 0; i < k; i++ {
		tr.end(tr.begin("probe", int64(i), -1))
	}
	return float64(time.Since(t0).Nanoseconds()) / k
}
