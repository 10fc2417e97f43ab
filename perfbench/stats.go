package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// minBeyond is the sample-count rule for reported percentiles: a
// percentile is reported only when at least this many samples lie beyond
// it, so one outlier cannot be the whole tail.
const minBeyond = 10

// latencies collects one operation class's client-observed durations in
// milliseconds. It is safe for concurrent use.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(ms float64) {
	l.mu.Lock()
	l.ms = append(l.ms, ms)
	l.mu.Unlock()
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	out := append([]float64(nil), l.ms...)
	l.mu.Unlock()
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest-rank position of percentile p (0 < p < 100)
// among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the nearest-rank
// percentile p.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minSamples is the smallest sample count that leaves minBeyond samples
// beyond percentile p.
func minSamples(p float64) int {
	n := minBeyond + 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// pct is one reported percentile with the sample counts that support it.
type pct struct {
	P      float64 `json:"p"`
	Ms     float64 `json:"ms"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank percentile p of the sorted samples,
// or an error when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (pct, error) {
	n := len(sorted)
	if n == 0 {
		return pct{P: p}, fmt.Errorf("p%g: no samples", p)
	}
	out := pct{P: p, Ms: sorted[rank(n, p)-1], N: n, Beyond: beyond(n, p)}
	if out.Beyond < minBeyond {
		return out, fmt.Errorf("p%g: %d samples leave %d beyond it, need %d (run at least %d)",
			p, n, out.Beyond, minBeyond, minSamples(p))
	}
	return out, nil
}

// median returns the middle value of unsorted values (the mean of the two
// middle ones for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// tally counts the operations a run attempted and the ones that failed.
// Every operation that does not return a usable result counts as failed,
// including requests the server refused (a 4xx/5xx answer such as 429 or
// 503): a refusal misses every latency limit. It is safe for concurrent
// use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// record notes one attempted operation and its outcome.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// errorRate is failed over attempted operations (0 when nothing ran).
func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
