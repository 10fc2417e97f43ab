package adawave

// Scale-axis benchmarks for the out-of-core pipeline: 10M points as the
// committed BENCH series entry (BenchmarkExternal10M), 100M as an opt-in
// smoke behind ADAWAVE_BENCH_100M=1 (the file alone is 1.6 GB). Both
// stream a synthetic mixture into a mapped-Dataset file with O(1) memory,
// cluster it through ClusterDatasetExternalOptions under an explicit resident
// budget, and assert — via a runtime.ReadMemStats sampler — that peak heap
// growth stayed within the budget the caller configured.

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adawave/internal/core"
	"adawave/internal/synth"
)

// buildMappedMixture writes an n-point dim-D mixture to path (once per
// process — the 10M file costs ~160 MB and ~10 s, so iterations share it).
func buildMappedMixture(b *testing.B, path string, n, dim int) {
	b.Helper()
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return
	}
	w, err := CreateMappedDataset(path, dim)
	if err != nil {
		b.Fatal(err)
	}
	if err := synth.StreamMixture(n, dim, 6, 0.3, 1, w.AppendRow); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// heapSampler polls HeapAlloc until stopped and records the maximum seen.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		var m runtime.MemStats
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > s.peak.Load() {
				s.peak.Store(m.HeapAlloc)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) finish() uint64 {
	close(s.stop)
	s.done.Wait()
	return s.peak.Load()
}

// runExternalScale clusters the mapped file at path under opts and asserts
// the peak heap growth stayed within budget. Returns points/s.
func runExternalScale(b *testing.B, path string, opts core.ExternalOptions) {
	b.Helper()
	m, err := OpenMappedDataset(path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	c, err := New(WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		b.Fatal(err)
	}
	// Tighten the GC so HeapAlloc tracks the live set: the budget bounds
	// what the pipeline keeps reachable, and a 100%-overshoot GC would
	// hide a 2× working-set bug behind normal collector slack.
	old := debug.SetGCPercent(30)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := startHeapSampler()
		res, err := c.ClusterDatasetExternalOptions(context.Background(), m.Dataset(), opts)
		if err != nil {
			b.Fatal(err)
		}
		peak := s.finish()
		if len(res.Labels) != m.N() {
			b.Fatalf("labels: got %d, want %d", len(res.Labels), m.N())
		}
		if res.NumClusters < 1 {
			b.Fatalf("no clusters found at scale n=%d", m.N())
		}
		growth := int64(peak) - int64(base.HeapAlloc)
		if growth > opts.MaxResidentBytes {
			b.Fatalf("peak heap growth %d MiB exceeds the %d MiB resident budget",
				growth>>20, opts.MaxResidentBytes>>20)
		}
		b.ReportMetric(float64(growth)/(1<<20), "peakMiB")
		b.ReportMetric(float64(res.NumClusters), "clusters")
	}
	b.StopTimer()
	b.ReportMetric(float64(m.N())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkExternal10M is the scale-axis gate: 10 million 2-D points
// clustered out-of-core under a 256 MiB resident budget, with chunking and
// spill thresholds forced small enough that the run exercises multiple
// chunks and on-disk sorted runs (not one lucky in-RAM pass). The budget
// was 384 MiB before the block-compressed grid representation; the
// observed peak is ~160 MiB (the 120 MiB per-point outputs dominate), so
// 256 MiB gates real working-set regressions while leaving GC-slack
// headroom.
func BenchmarkExternal10M(b *testing.B) {
	path := filepath.Join(os.TempDir(), "adawave-bench-10m.awds")
	buildMappedMixture(b, path, 10_000_000, 2)
	b.Cleanup(func() { os.Remove(path) })
	runExternalScale(b, path, core.ExternalOptions{
		MaxResidentBytes: 256 << 20,
		ChunkPoints:      2_000_000,
		SpillBytes:       8 << 20,
	})
}

// BenchmarkExternal100M is the opt-in 100-million-point smoke (1.6 GB
// mapped file, several minutes of wall clock): set ADAWAVE_BENCH_100M=1.
func BenchmarkExternal100M(b *testing.B) {
	if os.Getenv("ADAWAVE_BENCH_100M") == "" {
		b.Skip("set ADAWAVE_BENCH_100M=1 to run the 100M-point scale smoke")
	}
	path := filepath.Join(os.TempDir(), "adawave-bench-100m.awds")
	buildMappedMixture(b, path, 100_000_000, 2)
	b.Cleanup(func() { os.Remove(path) })
	runExternalScale(b, path, core.ExternalOptions{
		MaxResidentBytes: 2 << 30,
		ChunkPoints:      8_000_000,
		SpillBytes:       64 << 20,
	})
}
