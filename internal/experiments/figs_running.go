package experiments

import (
	"context"
	"fmt"
	"sort"

	"adawave/internal/core"
	"adawave/internal/grid"
	"adawave/internal/metrics"
	"adawave/internal/plot"
	"adawave/internal/synth"
)

// RunFig2 reproduces Fig. 1/2: the running example clustered by k-means,
// DBSCAN, SkinnyDip and AdaWave, reporting the AMI (over true cluster
// points) and cluster count of each, plus ASCII renderings of the raw data
// and the AdaWave labeling.
func RunFig2(opt Options) error {
	w := opt.out()
	header(w, mustExperiment("fig2"))
	per := 1600
	if opt.Quick {
		per = 320
	}
	ds := synth.RunningExampleSized(per, opt.seed())
	fmt.Fprintf(w, "running example: n=%d d=%d clusters=%d noise=%.0f%%\n\n",
		ds.N(), ds.Dim(), ds.NumClusters(), ds.NoiseFraction()*100)

	algs := []Algorithm{
		kmeansAlg(),
		dbscanAlg(dbscanEpsGrid(opt.Quick)),
		skinnyDipAlg(),
		adaWaveAlg(false, opt.engineWorkers()),
	}
	published := map[string]string{
		"k-means": "0.25", "DBSCAN": "0.28 (21 clusters)", "SkinnyDip": "poor", "AdaWave": "0.76",
	}
	var adaLabels []int
	fmt.Fprintf(w, "%-10s  %8s  %9s  %s\n", "method", "AMI", "#clusters", "paper")
	for _, a := range algs {
		ami, labels, err := scoreAlg(a, ds.Points, ds.NumClusters(), ds.Labels, opt.seed())
		if err != nil {
			return fmt.Errorf("fig2: %w", err)
		}
		if a.Name == "AdaWave" {
			adaLabels = labels
		}
		fmt.Fprintf(w, "%-10s  %8.3f  %9d  %s\n",
			a.Name, ami, metrics.ClusterCount(labels, synth.NoiseLabel), published[a.Name])
	}
	fmt.Fprintf(w, "\nraw data (Fig. 1a):\n%s", plot.Scatter(ds.Points, ds.Labels, 72, 24))
	fmt.Fprintf(w, "\nAdaWave clustering (Fig. 1b):\n%s", plot.Scatter(ds.Points, adaLabels, 72, 24))
	return nil
}

// RunFig5 reproduces Fig. 5: the effect of the 2-D discrete wavelet
// transform on the quantized feature space — dense regions sharpen while
// isolated outlier cells thin out.
func RunFig5(opt Options) error {
	w := opt.out()
	header(w, mustExperiment("fig5"))
	per := 1600
	if opt.Quick {
		per = 320
	}
	ds := synth.RunningExampleSized(per, opt.seed())

	cfg := core.DefaultConfig()
	ctx, flat, workers := context.Background(), ds.Flat(), opt.engineWorkers()
	q, err := grid.NewQuantizerDatasetCtx(ctx, flat, cfg.Scale, workers)
	if err != nil {
		return fmt.Errorf("fig5: %w", err)
	}
	g, _, err := q.QuantizeDatasetCtx(ctx, flat, workers)
	if err != nil {
		return fmt.Errorf("fig5: %w", err)
	}
	t, err := grid.TransformFlatCtx(ctx, g, cfg.Basis, workers)
	if err != nil {
		return fmt.Errorf("fig5: %w", err)
	}
	t.DropBelow(cfg.CoeffEpsilon * maxDensity(t))

	// “The number of points sparsely scattered (outliers) in the
	// transformed feature space is lower than that in the original space”:
	// sparse cells are the occupied cells carrying under 10 % of the peak
	// density — the uniform-noise carpet.
	before, after := sparseCells(g), sparseCells(t)
	fmt.Fprintf(w, "%-28s  %10s  %12s\n", "", "original", "transformed")
	fmt.Fprintf(w, "%-28s  %10d  %12d\n", "occupied cells", g.Len(), t.Len())
	fmt.Fprintf(w, "%-28s  %10d  %12d\n", "sparse (outlier) cells", before, after)
	fmt.Fprintf(w, "%-28s  %10d  %12d\n", "isolated cells", isolatedCells(g, workers), isolatedCells(t, workers))
	fmt.Fprintf(w, "%-28s  %10.2f  %12.2f\n", "max cell density", maxDensity(g), maxDensity(t))
	if after >= before {
		fmt.Fprintf(w, "\nWARNING: outliers did not decrease (paper expects a drop)\n")
	} else {
		fmt.Fprintf(w, "\noutlier cells dropped by %.0f%% — “the decrease in outliers reveals\nthe robustness of DWT regarding extreme noise”\n",
			100*(1-float64(after)/float64(before)))
	}
	return nil
}

// sparseCells counts occupied cells carrying less than two points' worth
// of mass — the sparsely scattered background the paper's Fig. 5 narrates
// (an absolute cut: cell values are densities in units of points).
func sparseCells(g *grid.FlatGrid) int {
	count := 0
	for _, v := range g.Vals {
		if v < 2 {
			count++
		}
	}
	return count
}

// RunFig6 reproduces Fig. 6: the descending sorted-density curve of the
// transformed grid and the adaptively chosen threshold that splits signal,
// middle and noise segments.
func RunFig6(opt Options) error {
	w := opt.out()
	header(w, mustExperiment("fig6"))
	ds := synth.Evaluation(opt.perCluster(), 0.5, opt.seed())

	eng, err := core.NewEngine(core.DefaultConfig(), opt.engineWorkers())
	if err != nil {
		return fmt.Errorf("fig6: %w", err)
	}
	res, err := eng.ClusterDatasetContext(context.Background(), ds.Flat())
	if err != nil {
		return fmt.Errorf("fig6: %w", err)
	}
	fmt.Fprintf(w, "dataset: n=%d, noise=50%% (Fig. 7 data)\n", ds.N())
	fmt.Fprintf(w, "cells: quantized=%d transformed=%d kept=%d\n",
		res.CellsQuantized, res.CellsTransformed, res.CellsKept)
	fmt.Fprintf(w, "adaptive threshold: density=%.4f at sorted index %d of %d (top %.1f%% kept)\n\n",
		res.Threshold, res.ThresholdIndex, len(res.Curve),
		100*float64(res.ThresholdIndex+1)/float64(len(res.Curve)))
	fmt.Fprintf(w, "sorted density curve (Fig. 6a; T marks the cut):\n%s",
		curveWithCut(res.Curve, res.ThresholdIndex))
	return nil
}

// RunFig7 reproduces Fig. 7: the synthetic evaluation dataset itself.
func RunFig7(opt Options) error {
	w := opt.out()
	header(w, mustExperiment("fig7"))
	ds := synth.Evaluation(opt.perCluster(), 0.5, opt.seed())
	fmt.Fprintf(w, "n=%d d=%d clusters=%d noise=%.0f%%\n", ds.N(), ds.Dim(), ds.NumClusters(), ds.NoiseFraction()*100)
	sizes := make([]int, ds.NumClusters())
	for _, l := range ds.Labels {
		if l != synth.NoiseLabel {
			sizes[l]++
		}
	}
	fmt.Fprintf(w, "cluster sizes: %v (ellipse, ring, ring, segment, segment)\n\n", sizes)
	fmt.Fprintf(w, "%s", plot.Scatter(ds.Points, ds.Labels, 72, 24))
	return nil
}

// maxDensity returns the largest cell density of a grid (0 when empty).
func maxDensity(g *grid.FlatGrid) float64 {
	var mx float64
	for _, v := range g.Vals {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// isolatedCells counts occupied cells with no occupied face-neighbor — the
// “sparsely scattered points (outliers)” of the paper's Fig. 5 narration.
func isolatedCells(g *grid.FlatGrid, workers int) int {
	labels, ncomp, err := grid.ComponentsFlatAutoCtx(context.Background(), g, grid.Faces, workers)
	if err != nil {
		return 0
	}
	sizes := make([]int, ncomp)
	for _, l := range labels {
		sizes[l]++
	}
	count := 0
	for _, s := range sizes {
		if s == 1 {
			count++
		}
	}
	return count
}

// curveWithCut renders the sorted density curve with the threshold index
// marked as a second series.
func curveWithCut(curve []float64, cut int) string {
	// Subsample long curves for readability.
	m := len(curve)
	if m == 0 {
		return "(empty curve)\n"
	}
	xs := make([]float64, m)
	for i := range xs {
		xs[i] = float64(i)
	}
	lines := []plot.Line{
		{Name: "sorted cell density", X: xs, Y: curve},
		{Name: "threshold cut", X: []float64{float64(cut)}, Y: []float64{curve[cut]}},
	}
	return plot.Chart(lines, 72, 18)
}

// sortedCopy returns a descending copy of xs (shared helper for reports).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
