package adawave

// One benchmark per table/figure of the paper's evaluation (§V), plus
// ablation benches for the design choices DESIGN.md calls out. The benches
// report AMI (and domain metrics) via b.ReportMetric, so `go test -bench=.`
// doubles as a compact experiment regenerator; the full reports live in
// cmd/experiments.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"adawave/internal/baselines/dbscan"
	"adawave/internal/baselines/kmeans"
	"adawave/internal/baselines/skinnydip"
	"adawave/internal/baselines/wavecluster"
	"adawave/internal/core"
	"adawave/internal/datasets"
	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/metrics"
	"adawave/internal/oracle"
	"adawave/internal/persist"
	"adawave/internal/pointset"
	"adawave/internal/sched"
	"adawave/internal/stats"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// BenchmarkFig2RunningExample times the sequential reference (oracle.Cluster)
// on the Fig. 1/2 running example and reports the AMI the paper
// headline-quotes (0.76).
func BenchmarkFig2RunningExample(b *testing.B) {
	ds := synth.RunningExampleSized(800, 1)
	cfg := core.DefaultConfig()
	var ami float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := oracle.Cluster(ds.Points, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	}
	b.ReportMetric(ami, "AMI")
}

// BenchmarkEngineFig2RunningExample times the parallel flat-grid engine on
// the exact workload of BenchmarkFig2RunningExample — the before/after pair
// for the engine: the map-based sequential pipeline above, the
// struct-of-arrays engine here at 1 worker (allocation win) and at
// GOMAXPROCS workers (parallel win). The AMI metric must not move: the
// engine is label-for-label identical to the sequential path.
func BenchmarkEngineFig2RunningExample(b *testing.B) {
	ds := synth.RunningExampleSized(800, 1)
	cfg := core.DefaultConfig()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := core.NewEngine(cfg, workers)
			if err != nil {
				b.Fatal(err)
			}
			var ami float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := clusterRows(eng, ds.Points)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// clusterRows is the [][]float64 caller's path through the engine: copy the
// rows into a flat Dataset with FromSlices, then run the one flat entry
// point. The slice benchmarks call it inside their timed loops, so the copy
// is part of what they measure.
func clusterRows(eng *core.Engine, points [][]float64) (*core.Result, error) {
	ds, err := pointset.FromSlices(points)
	if err != nil {
		return nil, err
	}
	return eng.ClusterDatasetContext(context.Background(), ds)
}

// BenchmarkEngineFig9Roadmap is the engine's large-n counterpart of
// BenchmarkFig9Roadmap (20 000 road-network points): quantization and
// assignment dominate here, which is where the point shards parallelize.
func BenchmarkEngineFig9Roadmap(b *testing.B) {
	ds := datasets.Roadmap(20000, 1)
	cfg := core.DefaultConfig()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := core.NewEngine(cfg, workers)
			if err != nil {
				b.Fatal(err)
			}
			var ami float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := clusterRows(eng, ds.Points)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkEngineDatasetFig2RunningExample is the flat-Dataset rendering of
// BenchmarkEngineFig2RunningExample: same workload, but the points live in
// one row-major backing slice, each point's base cell is memoized during
// quantization, and assignment is a table lookup — the before/after pair
// for the point-major hot path.
func BenchmarkEngineDatasetFig2RunningExample(b *testing.B) {
	ds := synth.RunningExampleSized(800, 1)
	flat := ds.Flat()
	cfg := core.DefaultConfig()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := core.NewEngine(cfg, workers)
			if err != nil {
				b.Fatal(err)
			}
			var ami float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ClusterDatasetContext(context.Background(), flat)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkCtxOverheadFig2 measures the cost of the context-first pipeline:
// the exact workload of BenchmarkEngineDatasetFig2RunningExample/workers=1,
// driven through ClusterDatasetContext with a live cancellable context — the
// worst case for the shard-boundary ctx.Err() polls, since a cancelable
// context's Err is an atomic load where Background's is a constant nil.
// Acceptance: ≤2 % over the ctx-free Fig. 2 numbers of BENCH_4.json.
func BenchmarkCtxOverheadFig2(b *testing.B) {
	ds := synth.RunningExampleSized(800, 1)
	flat := ds.Flat()
	cfg := core.DefaultConfig()
	eng, err := core.NewEngine(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ami float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ClusterDatasetContext(ctx, flat)
		if err != nil {
			b.Fatal(err)
		}
		ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	}
	b.ReportMetric(ami, "AMI")
}

// BenchmarkEngineDatasetFig9Roadmap is the flat-Dataset rendering of
// BenchmarkEngineFig9Roadmap (20 000 road-network points), where per-point
// quantization and assignment dominate.
func BenchmarkEngineDatasetFig9Roadmap(b *testing.B) {
	ds := datasets.Roadmap(20000, 1)
	flat := ds.Flat()
	cfg := core.DefaultConfig()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := core.NewEngine(cfg, workers)
			if err != nil {
				b.Fatal(err)
			}
			var ami float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ClusterDatasetContext(context.Background(), flat)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkMultiResolution times the 5-level multi-resolution pass — the
// workload where per-level assignment cost compounds — through two paths:
// the engine's [][]float64 adapter and the flat Dataset path whose per-level assignment is one cell pass plus a
// table lookup per point (O(cells·log cells + n) per level instead of
// O(n·d + n·log cells)).
func BenchmarkMultiResolution(b *testing.B) {
	for _, w := range []struct {
		name string
		ds   *synth.Dataset
	}{
		{"Fig2", synth.RunningExampleSized(800, 1)},
		{"Fig9Roadmap", datasets.Roadmap(20000, 1)},
	} {
		flat := w.ds.Flat()
		cfg := core.DefaultConfig()
		eng, err := core.NewEngine(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.name+"/engine-slices", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := pointset.FromSlices(w.ds.Points)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.ClusterMultiResolutionDatasetContext(context.Background(), rows, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/engine-dataset", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.ClusterMultiResolutionDatasetContext(context.Background(), flat, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssignNoiseToNearest times the paper's noise re-assignment
// protocol (3 centroid iterations over the Fig. 7 mixture at 75 % noise) —
// the O(n·k·d) stage whose nearest-centroid search shards across workers.
func BenchmarkAssignNoiseToNearest(b *testing.B) {
	ds := synth.Evaluation(2000, 0.75, 1)
	res, err := oracle.Cluster(ds.Points, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.AssignNoiseToNearestParallel(ds.Points, res.Labels, 3, workers)
			}
		})
	}
}

// BenchmarkEngineFig10Runtime mirrors BenchmarkFig10Runtime (the paper's
// linear-growth claim) on the parallel engine at GOMAXPROCS workers.
func BenchmarkEngineFig10Runtime(b *testing.B) {
	for _, per := range []int{250, 500, 1000, 2000} {
		ds := synth.Evaluation(per, 0.75, 1)
		b.Run(fmt.Sprintf("n=%d", ds.N()), func(b *testing.B) {
			eng, err := core.NewEngine(core.DefaultConfig(), 0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := clusterRows(eng, ds.Points); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlatTransform times one full level of the flat slab DWT
// on two base grids: the Fig. 2 running example (2-D, scale 128; see
// BenchmarkFig5Transform for the map engine on the same cells) and the
// highdim-embed workload's base grid (400k 64-D points through PCA(4) at
// scale 64, 199,626 4-D cells), through TransformFlatCtx, in input cells/s
// (the base grid's cells). The transform never modifies its input, so the
// timed loop transforms the same grid every iteration.
func BenchmarkFlatTransform(b *testing.B) {
	basis := wavelet.CDF22()
	ctx := context.Background()
	for _, bc := range baseGrids {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				f := bc.grid(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := grid.TransformFlatCtx(ctx, f, basis, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(f.Len())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			})
		}
	}
}

// baseGrids are the quantized base grids of the flat-kernel benchmarks.
var baseGrids = []struct {
	name string
	grid func(*testing.B) *grid.FlatGrid
}{
	{"fig2", fig2BaseGrid},
	{"highdim", highdimBaseGrid},
}

// fig2BaseGrid quantizes the Fig. 2 running example at scale 128.
func fig2BaseGrid(b *testing.B) *grid.FlatGrid {
	ds := synth.RunningExampleSized(800, 1)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds.Flat(), 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, _, err := q.QuantizeDatasetCtx(context.Background(), ds.Flat(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkComponents times the connect stage alone: ComponentsFlatAutoCtx
// on the kept grid of a default pass (one CDF(2,2) level, coefficient
// denoising, the three-segment threshold) over each base grid, under both
// connectivities.
func BenchmarkComponents(b *testing.B) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	kept := map[string]*grid.FlatGrid{}
	keptGrid := func(b *testing.B, name string, base func(*testing.B) *grid.FlatGrid) *grid.FlatGrid {
		if k, ok := kept[name]; ok {
			return k
		}
		t, err := grid.TransformFlatCtx(ctx, base(b), cfg.Basis, 1)
		if err != nil {
			b.Fatal(err)
		}
		var maxD float64
		for _, v := range t.Vals {
			maxD = max(maxD, v)
		}
		t.DropBelow(cfg.CoeffEpsilon * maxD)
		thr, _ := cfg.Threshold.Cut(t.SortedDensities())
		kept[name] = t.Threshold(thr)
		return kept[name]
	}
	for _, bc := range baseGrids {
		for _, conn := range []struct {
			name string
			c    grid.Connectivity
		}{{"faces", grid.Faces}, {"full", grid.Full}} {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", bc.name, conn.name, workers), func(b *testing.B) {
					k := keptGrid(b, bc.name, bc.grid)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := grid.ComponentsFlatAutoCtx(ctx, k, conn.c, workers); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(k.Len()), "cells")
				})
			}
		}
	}
}

var (
	highdimBaseOnce sync.Once
	highdimBase     *grid.FlatGrid
	highdimBaseErr  error
)

// highdimBaseGrid builds the highdim-embed workload's base grid once:
// synth.HighDimMixture(8, 25000, 64, 4, 0.5, 1) through a fitted PCA(4),
// quantized at scale 64.
func highdimBaseGrid(b *testing.B) *grid.FlatGrid {
	highdimBaseOnce.Do(func() {
		ds := synth.HighDimMixture(8, 25_000, 64, 4, 0.5, 1).Flat()
		emb, err := embed.New(embed.Spec{Kind: embed.KindPCA, K: 4})
		if err == nil {
			err = emb.Fit(ds)
		}
		var pds *pointset.Dataset
		if err == nil {
			pds, err = emb.Transform(ds)
		}
		var q *grid.Quantizer
		if err == nil {
			q, err = grid.NewQuantizerDatasetCtx(context.Background(), pds, 64, 1)
		}
		if err == nil {
			highdimBase, _, err = q.QuantizeDatasetCtx(context.Background(), pds, 1)
		}
		highdimBaseErr = err
	})
	if highdimBaseErr != nil {
		b.Fatal(highdimBaseErr)
	}
	return highdimBase
}

// BenchmarkQuantizeDataset times the engine's quantize stage — the
// bounding-box scan and QuantizeDatasetCtx over a flat dataset — on each
// side of the dense/radix choice: the paper's Sec. V workload (2M 2-D
// points at scale 128: 16,384 cells, whose per-shard count tables fit
// within the rows, so the call counts every shard into its own table and
// ranks their sum) and 400k 4-D points at scale 64 (16.8M cells, more than
// the rows, so shards are radix-sorted and merged). The /scan series times
// the bounding-box scan (NewQuantizerDatasetCtx) alone, so the two passes
// read apart. The external/ series run the same scan and
// QuantizeDatasetExternalPackedCtx on each route: the dense one with
// 500k-point chunks, which the count tables still fit, and the radix one
// with SpillBytes 1, so every run is written to disk and merged back. The
// external/dense/mapped-bounds series is the dense one over the same rows
// in a mapped file that records their bounding box: its quantizer is built
// from the recorded bounds without a scan, and the count pass checks them.
// All report rows/s.
func BenchmarkQuantizeDataset(b *testing.B) {
	evaluation := synth.Evaluation(100000, 0.75, 1).Flat()
	blobs := synth.Blobs(8, 50000, 4, 0.1, 1).Flat()
	mapped := mappedBenchDataset(b, evaluation)
	cases := []struct {
		name  string
		ds    *pointset.Dataset
		scale int
		ext   *grid.ExtSortOptions // nil: the in-RAM QuantizeDatasetCtx
	}{
		{"dense/evaluation-2M", evaluation, 128, nil},
		{"radix/blobs-400k-d4", blobs, 64, nil},
		{"external/dense/evaluation-2M", evaluation, 128, &grid.ExtSortOptions{ChunkPoints: 500_000}},
		{"external/dense/mapped-bounds", mapped, 128, &grid.ExtSortOptions{ChunkPoints: 500_000}},
		{"external/radix/blobs-400k-d4", blobs, 64, &grid.ExtSortOptions{SpillBytes: 1}},
	}
	ctx := context.Background()
	for _, c := range cases {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				var opts grid.ExtSortOptions
				if c.ext != nil {
					opts = *c.ext
					opts.TempDir = b.TempDir()
				}
				for i := 0; i < b.N; i++ {
					q, err := grid.NewQuantizerDatasetCtx(ctx, c.ds, c.scale, workers)
					if err != nil {
						b.Fatal(err)
					}
					var cells int
					if c.ext == nil {
						f, _, err := q.QuantizeDatasetCtx(ctx, c.ds, workers)
						if err != nil {
							b.Fatal(err)
						}
						cells = f.Len()
					} else {
						p, _, err := q.QuantizeDatasetExternalPackedCtx(ctx, c.ds, workers, opts)
						if err != nil {
							b.Fatal(err)
						}
						cells = p.Len()
					}
					if cells == 0 {
						b.Fatal("empty grid")
					}
				}
				b.ReportMetric(float64(c.ds.N)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
			if c.ext != nil {
				continue // the scan is the in-RAM series' own
			}
			b.Run(fmt.Sprintf("%s/scan/workers=%d", c.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := grid.NewQuantizerDatasetCtx(ctx, c.ds, c.scale, workers); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(c.ds.N)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// mappedBenchDataset writes ds to a mapped file in b's temp directory and
// returns the file's view, which records the rows' bounding box; the
// mapping is released when b ends.
func mappedBenchDataset(b *testing.B, ds *pointset.Dataset) *pointset.Dataset {
	b.Helper()
	path := filepath.Join(b.TempDir(), "rows.awds")
	w, err := pointset.CreateMapped(path, ds.D)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < ds.N; i++ {
		if err := w.AppendRow(ds.Row(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	m, err := pointset.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	return m.Dataset()
}

// oracleTransform is one full level of the oracle's map transform.
func oracleTransform(b *testing.B, g *oracle.Grid, basis wavelet.Basis) *oracle.Grid {
	levels, err := oracle.TransformLevels(g, basis, 1)
	if err != nil {
		b.Fatal(err)
	}
	return levels[0]
}

// BenchmarkFig5Transform times the oracle's sparse 2-D DWT of the quantized running
// example (the paper's Fig. 5 illustration) and reports the outlier-cell
// reduction.
func BenchmarkFig5Transform(b *testing.B) {
	ds := synth.RunningExampleSized(800, 1)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds.Flat(), 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := oracle.Quantize(q, ds.Points)
	basis := wavelet.CDF22()
	var kept int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := oracleTransform(b, g, basis)
		kept = t.Len()
	}
	b.ReportMetric(float64(g.Len()), "cells-in")
	b.ReportMetric(float64(kept), "cells-out")
}

// BenchmarkFig6Threshold times the adaptive threshold strategies on the
// sorted density curve of the Fig. 7 data (the paper's Fig. 6).
func BenchmarkFig6Threshold(b *testing.B) {
	ds := synth.Evaluation(1000, 0.5, 1)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds.Flat(), 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := oracle.Quantize(q, ds.Points)
	curve := oracleTransform(b, g, wavelet.CDF22()).SortedDensities()
	for _, s := range []core.ThresholdStrategy{core.ThreeSegmentFit{}, core.SecondKnee{}} {
		b.Run(s.Name(), func(b *testing.B) {
			var idx int
			for i := 0; i < b.N; i++ {
				_, idx = s.Cut(curve)
			}
			b.ReportMetric(float64(idx), "cut-index")
			b.ReportMetric(float64(len(curve)), "curve-cells")
		})
	}
}

// BenchmarkFig7Generate times generation of the synthetic evaluation
// dataset at the paper's 50 % illustration noise.
func BenchmarkFig7Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := synth.Evaluation(1000, 0.5, int64(i+1))
		if ds.N() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkFig8NoiseSweep reproduces the Fig. 8 series in miniature: the
// per-algorithm AMI at 20/50/80 % noise, reported as sub-benchmarks.
func BenchmarkFig8NoiseSweep(b *testing.B) {
	type alg struct {
		name string
		run  func(ds *synth.Dataset) ([]int, error)
	}
	algs := []alg{
		{"AdaWave", func(ds *synth.Dataset) ([]int, error) {
			r, err := oracle.Cluster(ds.Points, core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return r.Labels, nil
		}},
		{"SkinnyDip", func(ds *synth.Dataset) ([]int, error) {
			r, err := skinnydip.Cluster(ds.Points, skinnydip.Config{})
			if err != nil {
				return nil, err
			}
			return r.Labels, nil
		}},
		{"DBSCAN", func(ds *synth.Dataset) ([]int, error) {
			r, err := dbscan.Cluster(ds.Points, dbscan.Config{Eps: 0.03, MinPts: 8})
			if err != nil {
				return nil, err
			}
			return r.Labels, nil
		}},
		{"k-means", func(ds *synth.Dataset) ([]int, error) {
			r, err := kmeans.Cluster(ds.Points, kmeans.Config{K: 5, Seed: 1})
			if err != nil {
				return nil, err
			}
			return r.Labels, nil
		}},
		{"WaveCluster", func(ds *synth.Dataset) ([]int, error) {
			r, err := wavecluster.Cluster(ds.Points, wavecluster.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return r.Labels, nil
		}},
	}
	for _, gamma := range []float64{0.2, 0.5, 0.8} {
		ds := synth.Evaluation(400, gamma, 1)
		for _, a := range algs {
			b.Run(fmt.Sprintf("gamma=%.0f%%/%s", gamma*100, a.name), func(b *testing.B) {
				var ami float64
				for i := 0; i < b.N; i++ {
					labels, err := a.run(ds)
					if err != nil {
						b.Fatal(err)
					}
					ami = metrics.AMINonNoise(ds.Labels, labels, synth.NoiseLabel)
				}
				b.ReportMetric(ami, "AMI")
			})
		}
	}
}

// BenchmarkTable1RealWorld times AdaWave (with the paper's noise-folding
// protocol) on each Table I stand-in small enough to bench.
func BenchmarkTable1RealWorld(b *testing.B) {
	for _, name := range []string{"seeds", "iris", "glass", "dumdh", "dermatology", "motor", "wholesale"} {
		ds, err := datasets.ByName(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Scale = 0
			if ds.Dim() > 8 {
				// The Table I protocol: long filters densify sparse
				// high-dimensional grids, Haar does not (DESIGN.md §4).
				cfg.Basis = wavelet.Haar()
			}
			var ami float64
			for i := 0; i < b.N; i++ {
				res, err := oracle.Cluster(ds.Points, cfg)
				if err != nil {
					b.Fatal(err)
				}
				labels := core.AssignNoiseToNearest(ds.Points, res.Labels, 3)
				ami = metrics.AMI(ds.Labels, labels)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkTable2GlassCorrelation times the Table II computation: Pearson
// correlation of every Glass attribute with the class.
func BenchmarkTable2GlassCorrelation(b *testing.B) {
	ds := datasets.Glass(1)
	class := make([]float64, ds.N())
	for i, l := range ds.Labels {
		class[i] = float64(l + 1)
	}
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst = 0
		for j, want := range datasets.GlassTargetCorrelations {
			got := stats.Pearson(stats.Column(ds.Points, j), class)
			if d := got - want; d > worst {
				worst = d
			} else if -d > worst {
				worst = -d
			}
		}
	}
	b.ReportMetric(worst, "max-abs-deviation")
}

// BenchmarkFig9Roadmap times AdaWave on the simulated road network and
// reports the case-study AMI (paper: 0.735).
func BenchmarkFig9Roadmap(b *testing.B) {
	ds := datasets.Roadmap(20000, 1)
	cfg := core.DefaultConfig()
	var ami float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := oracle.Cluster(ds.Points, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	}
	b.ReportMetric(ami, "AMI")
}

// BenchmarkFig10Runtime times AdaWave across growing n at the paper's 75 %
// noise — the linear-growth claim of Fig. 10. ns/op across the
// sub-benchmarks is the figure's AdaWave series.
func BenchmarkFig10Runtime(b *testing.B) {
	for _, per := range []int{250, 500, 1000, 2000} {
		ds := synth.Evaluation(per, 0.75, 1)
		b.Run(fmt.Sprintf("n=%d", ds.N()), func(b *testing.B) {
			cfg := core.DefaultConfig()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.Cluster(ds.Points, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBasis compares the wavelet bases on the same workload —
// the paper's “flexibility of choosing basis” property.
func BenchmarkAblationBasis(b *testing.B) {
	ds := synth.Evaluation(700, 0.5, 1)
	for _, basis := range wavelet.Bases() {
		b.Run(basis.Name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Basis = basis
			var ami float64
			for i := 0; i < b.N; i++ {
				res, err := oracle.Cluster(ds.Points, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkAblationLevels compares decomposition depths (multi-resolution).
func BenchmarkAblationLevels(b *testing.B) {
	ds := synth.Evaluation(700, 0.5, 1)
	for levels := 0; levels <= 3; levels++ {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Levels = levels
			var ami float64
			for i := 0; i < b.N; i++ {
				res, err := oracle.Cluster(ds.Points, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkAblationThreshold compares the threshold strategies end to end —
// the adaptive elbow against the paper-sequential knee and the non-adaptive
// baselines (the core design choice AdaWave adds over WaveCluster).
func BenchmarkAblationThreshold(b *testing.B) {
	ds := synth.Evaluation(700, 0.7, 1)
	strategies := []core.ThresholdStrategy{
		core.ThreeSegmentFit{},
		core.SecondKnee{},
		core.QuantileThreshold{Q: 0.8},
		core.FixedThreshold{Value: 5},
	}
	for _, s := range strategies {
		b.Run(s.Name(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Threshold = s
			var ami float64
			for i := 0; i < b.N; i++ {
				res, err := oracle.Cluster(ds.Points, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkAblationConnectivity compares face vs full (diagonal included)
// neighbor relations in component labeling.
func BenchmarkAblationConnectivity(b *testing.B) {
	ds := synth.Evaluation(700, 0.5, 1)
	for _, tc := range []struct {
		name string
		conn grid.Connectivity
	}{{"faces", grid.Faces}, {"full", grid.Full}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Connectivity = tc.conn
			var ami float64
			for i := 0; i < b.N; i++ {
				res, err := oracle.Cluster(ds.Points, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkAblationSparseVsDense compares the sparse scatter DWT against
// the dense per-row transform on the same occupied cells — the “grid
// labeling” memory/time trade the paper claims.
func BenchmarkAblationSparseVsDense(b *testing.B) {
	ds := synth.Evaluation(700, 0.5, 1)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds.Flat(), 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := oracle.Quantize(q, ds.Points)
	basis := wavelet.CDF22()
	b.Run("sparse-grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleTransform(b, g, basis)
		}
	})
	b.Run("dense-rows", func(b *testing.B) {
		// Materialize the full 128×128 grid and run the dense separable
		// transform — feasible only in low dimension.
		dense := make([][]float64, 128)
		for r := range dense {
			dense[r] = make([]float64, 128)
		}
		for k, v := range g.Cells {
			dense[k.Coord(1)][k.Coord(0)] = v
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Rows then columns.
			rows := make([][]float64, len(dense))
			for r := range dense {
				rows[r] = wavelet.Approx(dense[r], basis)
			}
			w := len(rows[0])
			col := make([]float64, len(rows))
			for c := 0; c < w; c++ {
				for r := range rows {
					col[r] = rows[r][c]
				}
				wavelet.Approx(col, basis)
			}
		}
	})
}

// BenchmarkQuantization times the linear-scan grid assignment (step 1).
func BenchmarkQuantization(b *testing.B) {
	ds := synth.Evaluation(1000, 0.5, 1)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds.Flat(), 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := oracle.Quantize(q, ds.Points)
		if g.Len() == 0 {
			b.Fatal("empty grid")
		}
	}
}

// BenchmarkAMI times the evaluation metric itself on a large labeling.
func BenchmarkAMI(b *testing.B) {
	ds := synth.Evaluation(1000, 0.5, 1)
	res, err := oracle.Cluster(ds.Points, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	}
}

// streamingFixture builds the streaming workload of the acceptance
// criterion: a 50 000-point road network as the warm history plus a 1 %
// delta batch of strictly interior points (copies of non-extreme rows), so
// appending the delta — and taking it back out — provably never moves the
// quantization bounding box and the warm path stays incremental.
func streamingFixture(b *testing.B) (warm, delta *pointset.Dataset) {
	data := datasets.Roadmap(50000, 1)
	warm = data.Flat()
	d := warm.D
	mins := append([]float64(nil), warm.Row(0)...)
	maxs := append([]float64(nil), warm.Row(0)...)
	for i := 0; i < warm.N; i++ {
		for j, v := range warm.Row(i) {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	delta = pointset.New(d, warm.N/100)
	for i := 0; i < warm.N && delta.N < warm.N/100; i++ {
		interior := true
		for j, v := range warm.Row(i) {
			if v == mins[j] || v == maxs[j] {
				interior = false
				break
			}
		}
		if interior {
			delta.AppendRow(warm.Row(i))
		}
	}
	return warm, delta
}

// BenchmarkSessionAppendRelabel measures the streaming hot path: append a
// 1 % delta batch into a warm 50 000-point Session and re-read the labels.
// Quantization is amortized — only the 500 delta points are quantized and
// folded in by one O(cells) merge; the grid-side stages re-run as usual.
// Each iteration removes the delta again (untimed) so the session stays at
// steady state. (The delta duplicates interior warm rows, so removal only
// decrements masses that stay ≥ 1 — no cell ever empties and the
// tombstone-sweep path is deliberately not part of this measurement.)
// Compare against BenchmarkColdRecluster50k, the same read served from
// scratch.
func BenchmarkSessionAppendRelabel(b *testing.B) {
	warm, delta := streamingFixture(b)
	sess, err := core.NewSession(core.DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.Append(warm); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Labels(); err != nil {
		b.Fatal(err)
	}
	idx := make([]int, delta.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Append(delta); err != nil {
			b.Fatal(err)
		}
		labels, err := sess.Labels()
		if err != nil {
			b.Fatal(err)
		}
		if len(labels) != warm.N+delta.N {
			b.Fatalf("labels: got %d", len(labels))
		}
		b.StopTimer()
		for j := range idx {
			idx[j] = warm.N + j
		}
		if err := sess.Remove(idx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkColdRecluster50k is the cold baseline for
// BenchmarkSessionAppendRelabel: the same 50 500-point union clustered from
// scratch (full quantization included) on every read.
func BenchmarkColdRecluster50k(b *testing.B) {
	warm, delta := streamingFixture(b)
	union := pointset.New(warm.D, warm.N+delta.N)
	union.Data = append(union.Data, warm.Data...)
	union.Data = append(union.Data, delta.Data...)
	union.N = warm.N + delta.N
	eng, err := core.NewEngine(core.DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ClusterDatasetContext(context.Background(), union)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Labels) != union.N {
			b.Fatalf("labels: got %d", len(res.Labels))
		}
	}
}

// BenchmarkWALAppend measures the write-ahead-log overhead every mutation
// of a durable adawave-serve session pays: framing + CRC + write of a 1 %
// (500-point) delta batch. policy=never isolates the serialization cost
// (the page cache absorbs the write); policy=always adds the fsync a
// zero-loss configuration pays before acknowledging.
func BenchmarkWALAppend(b *testing.B) {
	_, delta := streamingFixture(b)
	for _, policy := range []persist.SyncPolicy{persist.SyncNever, persist.SyncAlways} {
		b.Run("policy="+policy.String(), func(b *testing.B) {
			wal, err := persist.OpenWAL(filepath.Join(b.TempDir(), "wal.log"), policy)
			if err != nil {
				b.Fatal(err)
			}
			defer wal.Close()
			b.SetBytes(int64(8 * delta.N * delta.D))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wal.AppendBatch(delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdRecovery50k measures crash recovery to first labels: restore
// a 50k-point session checkpoint, replay a two-record WAL tail (a 1 % append
// and a small removal), and serve the first read. Compare against
// BenchmarkColdRecluster50k — recovery replaces the full requantization with
// sequential reads plus one O(cells) merge per replayed record.
func BenchmarkColdRecovery50k(b *testing.B) {
	warm, delta := streamingFixture(b)
	cfg := core.DefaultConfig()
	c, err := New(WithConfig(cfg), WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	sess := c.NewSession()
	if err := sess.AppendContext(context.Background(), warm); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.LabelsContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := sess.CheckpointContext(context.Background(), &ckpt); err != nil {
		b.Fatal(err)
	}
	walPath := filepath.Join(b.TempDir(), "wal.log")
	wal, err := persist.OpenWAL(walPath, persist.SyncNever)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := wal.AppendBatch(delta); err != nil {
		b.Fatal(err)
	}
	if _, err := wal.AppendRemove([]int{3, 1000, 2000}); err != nil {
		b.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		b.Fatal(err)
	}
	wantN := warm.N + delta.N - 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := New(WithConfig(cfg), WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		restored, err := fresh.RestoreSession(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := persist.ReplayInto(persist.OS, walPath, 0, restored); err != nil {
			b.Fatal(err)
		}
		labels, err := restored.LabelsContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(labels) != wantN {
			b.Fatalf("recovered labels: got %d, want %d", len(labels), wantN)
		}
	}
}

// BenchmarkSchedulerFairness measures the DRR pool's dispatch overhead and
// fairness: the wall time of a small tenant's 64-shard fan-out on the shared
// worker pool, first alone, then while a greedy tenant floods the pool with
// 64-shard jobs of its own. The contended number is the latency bound the
// deficit-round-robin scheduler guarantees a small tenant — it must stay
// within a bounded factor of solo, not degrade with the greedy tenant's
// queue depth.
func BenchmarkSchedulerFairness(b *testing.B) {
	const shards = 64
	work := func(_, lo, hi int) {
		var sink float64
		for i := lo; i < hi; i++ {
			for k := 0; k < 200; k++ {
				sink += float64(i*k) * 1e-9
			}
		}
		if sink < 0 {
			b.Fatal("unreachable")
		}
	}
	b.Run("solo", func(b *testing.B) {
		pool := sched.NewPool(runtime.GOMAXPROCS(0))
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Shards("small", shards, shards, work)
		}
	})
	b.Run("contended", func(b *testing.B) {
		pool := sched.NewPool(runtime.GOMAXPROCS(0))
		defer pool.Close()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						pool.Shards("greedy", shards, shards, work)
					}
				}
			}()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Shards("small", shards, shards, work)
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkEvictRehydrate50k measures the session eviction round trip the
// residency manager pays: serialize a warm 50k-point session to its
// checkpoint (evict) and restore it (rehydrate), per iteration. This is the
// cost of parking a cold tenant's session and the first-touch latency of
// bringing it back; compare BenchmarkColdRecluster50k for what rehydration
// saves over reclustering from raw points.
func BenchmarkEvictRehydrate50k(b *testing.B) {
	warm, _ := streamingFixture(b)
	cfg := core.DefaultConfig()
	c, err := New(WithConfig(cfg), WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	sess := c.NewSession()
	if err := sess.AppendContext(context.Background(), warm); err != nil {
		b.Fatal(err)
	}
	labels, err := sess.LabelsContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var probe bytes.Buffer
	if err := sess.CheckpointContext(context.Background(), &probe); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(probe.Len()))
	b.ResetTimer()
	var restored *Session
	for i := 0; i < b.N; i++ {
		var ckpt bytes.Buffer
		ckpt.Grow(probe.Len())
		if err := sess.CheckpointContext(context.Background(), &ckpt); err != nil {
			b.Fatal(err)
		}
		fresh, err := New(WithConfig(cfg), WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		restored, err = fresh.RestoreSession(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The round trip is only a win if it is lossless: the rehydrated session
	// must serve the bit-identical labels.
	got, err := restored.LabelsContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	for i := range labels {
		if got[i] != labels[i] {
			b.Fatalf("label %d diverged after evict/rehydrate: got %d, want %d", i, got[i], labels[i])
		}
	}
}

// BenchmarkMergeThroughputPacked measures the incremental grid merge on
// the representation a Session actually folds into: 2-way merging a 1 %
// delta grid into the packed live 50k-point grid with MergePackedFlatCtx,
// which streams the live blocks through the grid package's merge kernel
// and re-packs the union as it is emitted, reported in cells/s over the
// cells both inputs carry. The flat-input series of the same kernel is
// internal/grid's BenchmarkMergeThroughput, on the same fixture shape.
func BenchmarkMergeThroughputPacked(b *testing.B) {
	warm, delta := streamingFixture(b)
	flat, dg := quantizeMergeFixture(b, warm, delta)
	live := grid.PackFlat(flat)
	cells := live.Len() + dg.Len()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, _, _, err := grid.MergePackedFlatCtx(ctx, live, dg)
		if err != nil {
			b.Fatal(err)
		}
		if merged.Len() < live.Len() {
			b.Fatal("merge lost cells")
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// quantizeMergeFixture quantizes the warm set and the delta of the merge
// benchmarks in the warm set's frame at scale 128.
func quantizeMergeFixture(b *testing.B, warm, delta *pointset.Dataset) (live, dg *grid.FlatGrid) {
	ctx := context.Background()
	q, err := grid.NewQuantizerDatasetCtx(ctx, warm, 128, 1)
	if err == nil {
		live, _, err = q.QuantizeDatasetCtx(ctx, warm, 1)
	}
	if err == nil {
		dg, _, err = q.QuantizeDatasetCtx(ctx, delta, 1)
	}
	if err != nil {
		b.Fatal(err)
	}
	return live, dg
}

// BenchmarkGridFootprint measures resident bytes per occupied cell of the
// two grid representations on real quantized workloads — the flat
// struct-of-arrays layout against the block-compressed PackedGrid — and
// times the pack itself. The ≥2× compression floor is asserted, not just
// reported: the packed representation exists to shrink the resident set,
// and a format change that quietly loses the win should fail here.
func BenchmarkGridFootprint(b *testing.B) {
	mixture := pointset.New(3, 200_000)
	if err := synth.StreamMixture(200_000, 3, 6, 0.3, 1, func(row []float64) error {
		mixture.AppendRow(row)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	fixtures := []struct {
		name  string
		ds    *pointset.Dataset
		scale int
	}{
		{"fig2", synth.RunningExampleSized(800, 1).Flat(), 128},
		{"mixture3d", mixture, 64},
	}
	for _, fx := range fixtures {
		b.Run(fx.name, func(b *testing.B) {
			ctx := context.Background()
			q, err := grid.NewQuantizerDatasetCtx(ctx, fx.ds, fx.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			g, _, err := q.QuantizeDatasetCtx(ctx, fx.ds, 1)
			if err != nil {
				b.Fatal(err)
			}
			var pg *grid.PackedGrid
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pg = grid.PackFlat(g)
			}
			b.StopTimer()
			cells := float64(g.Len())
			flatBytes := float64(len(g.Coords))*2 + float64(len(g.Vals))*8 + float64(len(g.Size))*8
			packedBytes := float64(pg.Bytes())
			b.ReportMetric(flatBytes/cells, "flat-B/cell")
			b.ReportMetric(packedBytes/cells, "packed-B/cell")
			if packedBytes*2 > flatBytes {
				b.Fatalf("packed grid %d B for %d cells (%.1f B/cell) misses the 2x floor against flat %.1f B/cell",
					pg.Bytes(), g.Len(), packedBytes/cells, flatBytes/cells)
			}
		})
	}
}

// BenchmarkEmbedFig2 times the embedding front-end where it can't help: the
// Fig. 2 running example is already 2-d, so PCA(2) buys nothing and its
// whole cost — covariance, the Jacobi solve, the projection pass — is
// front-end overhead over the raw pipeline. The pair bounds the price of
// leaving WithEmbedding on for low-dimensional data. Both run the parallel
// engine at GOMAXPROCS workers.
func BenchmarkEmbedFig2(b *testing.B) {
	ds := synth.RunningExampleSized(800, 1)
	flat, err := pointset.FromSlices(ds.Points)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		spec embed.Spec
	}{
		{"raw", embed.Spec{}},
		{"pca", embed.Spec{Kind: embed.KindPCA, K: 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Embedding = bc.spec
			eng, err := core.NewEngine(cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			var ami float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ClusterDatasetContext(context.Background(), flat)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
}

// BenchmarkEmbedHighDim times the front-end on its real workload — the d=64
// noisy-mixture scenario projected to its rank-4 signal subspace. PCA pays a
// 64×64 covariance accumulation plus the Jacobi solve per fit; the seeded
// random projection fits in O(d·k) draws, so the pair separates fit cost
// from the shared projection + clustering cost. Both run the parallel
// engine at GOMAXPROCS workers. The project sub-benchmark times the
// projection alone at the highdim-embed workload's shape: 400k×64 rows
// through a fitted PCA(4) at GOMAXPROCS workers, reported in rows/s.
func BenchmarkEmbedHighDim(b *testing.B) {
	ds := synth.HighDimMixture(5, 250, 64, 4, 0.2, 1)
	flat := ds.Flat()
	for _, bc := range []struct {
		name  string
		spec  embed.Spec
		scale int
	}{
		{"pca", embed.Spec{Kind: embed.KindPCA, K: 4}, 12},
		{"rp", embed.Spec{Kind: embed.KindRP, K: 4, Seed: 2}, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Embedding = bc.spec
			cfg.Scale = bc.scale
			eng, err := core.NewEngine(cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			var ami float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ClusterDatasetContext(context.Background(), flat)
				if err != nil {
					b.Fatal(err)
				}
				ami = metrics.AMI(ds.Labels, res.Labels)
			}
			b.ReportMetric(ami, "AMI")
		})
	}
	b.Run("project", func(b *testing.B) {
		big := synth.HighDimMixture(8, 25_000, 64, 4, 0.5, 1).Flat()
		emb, err := embed.New(embed.Spec{Kind: embed.KindPCA, K: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := emb.Fit(big); err != nil {
			b.Fatal(err)
		}
		workers := runtime.GOMAXPROCS(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := emb.TransformCtx(context.Background(), big, workers); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(big.N)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkWALReplicationThroughput measures the full replication data
// path one streamed mutation pays on the follower side: the primary frames
// and writes a 1 % (500-point) append, a live Tailer picks the frame up
// through its own read fd, and the follower parses it, folds the batch into
// its warm 50k-point session and journals the identical bytes into its own
// WAL. This is the per-record pipeline a follower runs continuously; it is
// off the primary's mutation hot path entirely (the primary's own cost is
// BenchmarkWALAppend), so the number bounds replication lag under load, not
// client-visible latency.
func BenchmarkWALReplicationThroughput(b *testing.B) {
	warm, delta := streamingFixture(b)
	cfg := core.DefaultConfig()
	c, err := New(WithConfig(cfg), WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	sess := c.NewSession()
	if err := sess.AppendContext(context.Background(), warm); err != nil {
		b.Fatal(err)
	}
	primary, err := persist.OpenWAL(filepath.Join(b.TempDir(), "primary.log"), persist.SyncNever)
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	follower, err := persist.OpenWAL(filepath.Join(b.TempDir(), "follower.log"), persist.SyncNever)
	if err != nil {
		b.Fatal(err)
	}
	defer follower.Close()
	tail, err := primary.NewTailer(0)
	if err != nil {
		b.Fatal(err)
	}
	defer tail.Close()
	idx := make([]int, delta.N)
	b.SetBytes(int64(8 * delta.N * delta.D))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := primary.AppendBatch(delta); err != nil {
			b.Fatal(err)
		}
		frame, _, err := tail.Next()
		if err != nil {
			b.Fatal(err)
		}
		rec, err := persist.ParseFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.AppendContext(context.Background(), rec.Batch); err != nil {
			b.Fatal(err)
		}
		if _, err := follower.AppendFrame(frame, rec); err != nil {
			b.Fatal(err)
		}
		// Keep the follower session at its 50k steady state; the removal is
		// bookkeeping outside the measured pipeline.
		b.StopTimer()
		for j := range idx {
			idx[j] = warm.N + j
		}
		if err := sess.RemoveContext(context.Background(), idx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFailover50k measures the warm-failover handoff a promoted
// follower pays before serving its first read: the replica session already
// holds every streamed mutation (that is what warm means — no checkpoint
// restore, no WAL replay at promote time), so the handoff cost is one
// labels pass over the maintained grid with the freshly streamed tail
// folded in. Compare BenchmarkColdRecovery50k, the same first read served
// without a follower: checkpoint restore plus tail replay come first there.
func BenchmarkFailover50k(b *testing.B) {
	warm, delta := streamingFixture(b)
	cfg := core.DefaultConfig()
	c, err := New(WithConfig(cfg), WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	sess := c.NewSession()
	if err := sess.AppendContext(context.Background(), warm); err != nil {
		b.Fatal(err)
	}
	idx := make([]int, delta.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A follower serves no reads, so at promote time the label cache is
		// cold and the last streamed frames are still pending; stage that
		// state outside the measured handoff.
		b.StopTimer()
		if err := sess.AppendContext(context.Background(), delta); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		labels, err := sess.LabelsContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(labels) != warm.N+delta.N {
			b.Fatalf("labels: got %d", len(labels))
		}
		b.StopTimer()
		for j := range idx {
			idx[j] = warm.N + j
		}
		if err := sess.RemoveContext(context.Background(), idx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
