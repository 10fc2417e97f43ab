package adawave_test

// BenchmarkLabelsWire lives outside bench_test.go because that file is in
// package adawave, and internal/api imports adawave: an in-package test
// importing it would be an import cycle.

import (
	"math/rand"
	"testing"

	"adawave/internal/api"
)

// BenchmarkLabelsWire times the label codec of the served /labels route on
// one response at the serve-sliding-window shape: 50k labels, three in four
// of them noise (-1) and the rest spread over a handful of clusters, which
// renders to about 137 KB. encode is the server's api.AppendResult into a
// reused buffer, decode the client's api.DecodeResult of the same bytes;
// both report labels/s.
func BenchmarkLabelsWire(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(1))
	res := api.Result{Labels: make([]int, n), NumClusters: 6, Threshold: 0.1 + 0.2,
		Levels: 1, Scale: 128, CellsQuantized: 9000, CellsTransformed: 2500, CellsKept: 400}
	for i := range res.Labels {
		res.Labels[i] = -1
		if rng.Intn(4) == 0 {
			res.Labels[i] = rng.Intn(res.NumClusters)
			continue
		}
		res.Noise++
	}
	body := api.AppendResult(nil, &res)

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(body))
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = api.AppendResult(buf[:0], &res)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "labels/s")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out api.Result
			if err := api.DecodeResult(body, &out); err != nil || len(out.Labels) != n {
				b.Fatalf("decode: %d labels, %v", len(out.Labels), err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "labels/s")
	})
}
