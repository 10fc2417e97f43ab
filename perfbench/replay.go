package main

import (
	"context"
	"errors"
	"sort"

	"adawave/internal/core"
	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// The traced replay of one batch clustering call: the engine's stage list
// (embed → quantize → transform → threshold → connect → assign) re-run
// through the exported functions of internal/embed, internal/grid and
// internal/core, with one span around each call. The engine's unexported
// glue between stages — scale resolution, the coefficient drop, the
// relabel by component size, the external-sort options — is re-implemented
// here and timed inside the adjacent span. The replay's labels must equal
// the engine's bit for bit, which proves it measures the same work.

// Span names of the replay; layerMetric maps them to per-layer metrics.
const (
	spanCall      = "cluster"
	spanEmbedFit  = "embed.fit"
	spanEmbedProj = "embed.project"
	spanQuantize  = "grid.quantize"
	spanExtsort   = "grid.extsort"
	spanTransform = "grid.transform"
	spanThreshold = "core.threshold"
	spanConnect   = "grid.connect"
	spanAssign    = "grid.assign"
)

// replayCounts are the work counts of one replayed call.
type replayCounts struct {
	cellsQuantized   int
	cellsTransformed int
	cellsKept        int
	components       int
	clusters         int
}

// ancestorGrid is either representation of the base grid: both map each
// base cell to its kept-grid ancestor's label.
type ancestorGrid interface {
	AncestorLabelsCtx(ctx context.Context, dst []int32, kept *grid.FlatGrid, levels int, keptLabels []int32, workers int) ([]int32, error)
}

// replayCluster runs one clustering of ds under cfg with w workers, recording
// spans under operation op. ext selects the out-of-core quantizer.
func replayCluster(ctx context.Context, tr *tracer, op int64, cfg core.Config, w int, ds *pointset.Dataset, ext *core.ExternalOptions) ([]int, replayCounts, error) {
	var cnt replayCounts
	if cfg.Levels < 1 {
		return nil, cnt, errors.New("replay: needs at least one transform level")
	}
	root := tr.begin(spanCall, op, -1)
	defer tr.end(root)

	if cfg.Embedding.Enabled() {
		if ext != nil {
			return nil, cnt, errors.New("replay: embedding with the external path is not replayed")
		}
		s := tr.begin(spanEmbedFit, op, root)
		emb, err := embed.New(cfg.Embedding)
		if err == nil {
			err = emb.Fit(ds)
		}
		tr.end(s)
		if err != nil {
			return nil, cnt, err
		}
		s = tr.begin(spanEmbedProj, op, root)
		ds, err = emb.Transform(ds)
		tr.end(s)
		if err != nil {
			return nil, cnt, err
		}
	}

	s := tr.begin(spanQuantize, op, root)
	cfg = resolveScale(cfg, ds.N, ds.D)
	var (
		base  *grid.FlatGrid
		pbase *grid.PackedGrid
		ids   []int32
	)
	q, err := grid.NewQuantizerDatasetCtx(ctx, ds, cfg.Scale, w)
	if err == nil {
		if ext != nil {
			var opts grid.ExtSortOptions
			if opts, err = extSortOptions(*ext); err == nil {
				x := tr.begin(spanExtsort, op, s)
				if cfg.PackedCells {
					pbase, ids, err = q.QuantizeDatasetExternalPackedCtx(ctx, ds, w, opts)
				} else {
					base, ids, err = q.QuantizeDatasetExternalCtx(ctx, ds, w, opts)
				}
				tr.end(x)
			}
		} else {
			base, ids, err = q.QuantizeDatasetCtx(ctx, ds, w)
		}
	}
	tr.end(s)
	if err != nil {
		return nil, cnt, err
	}

	s = tr.begin(spanTransform, op, root)
	var (
		abase ancestorGrid
		in    *grid.FlatGrid
	)
	if pbase != nil {
		abase, in = pbase, pbase.UnpackInto(&grid.FlatGrid{})
		cnt.cellsQuantized = pbase.Len()
	} else {
		abase, in = base, base
		cnt.cellsQuantized = base.Len()
	}
	levels, err := grid.TransformLevelsFlatCtx(ctx, in, cfg.Basis, cfg.Levels, w)
	if pbase == nil {
		base.SortCanonical()
	}
	if err != nil {
		tr.end(s)
		return nil, cnt, err
	}
	t := levels[len(levels)-1]
	dropLowCoefficients(t, cfg.CoeffEpsilon)
	tr.end(s)
	cnt.cellsTransformed = t.Len()

	labels := make([]int, len(ids))
	if t.Len() == 0 {
		for i := range labels {
			labels[i] = core.Noise
		}
		return labels, cnt, nil
	}

	s = tr.begin(spanThreshold, op, root)
	curve := t.SortedDensitiesInto(nil)
	thr, _ := cfg.Threshold.Cut(curve)
	kept := t.Threshold(thr)
	if kept.Len() == 0 {
		kept = t
	}
	tr.end(s)
	cnt.cellsKept = kept.Len()

	s = tr.begin(spanConnect, op, root)
	comp, ncomp, err := grid.ComponentsFlatAutoCtx(ctx, kept, cfg.Connectivity, w)
	var keptLabels []int32
	if err == nil {
		keptLabels, cnt.clusters = relabelBySize(kept, comp, ncomp, cfg.MinClusterCells, cfg.MinClusterMass)
	}
	tr.end(s)
	if err != nil {
		return nil, cnt, err
	}
	cnt.components = ncomp

	s = tr.begin(spanAssign, op, root)
	cellLabels, err := abase.AncestorLabelsCtx(ctx, nil, kept, cfg.Levels, keptLabels, w)
	if err == nil {
		grid.ParallelRangesCtx(ctx, len(ids), w, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				labels[i] = int(cellLabels[ids[i]])
			}
		})
		err = ctx.Err()
	}
	tr.end(s)
	if err != nil {
		return nil, cnt, err
	}
	return labels, cnt, nil
}

// resolveScale substitutes the automatic scale for Scale == 0 and keeps
// at least two cells per dimension after the decomposition (the engine's
// scale resolution).
func resolveScale(cfg core.Config, n, d int) core.Config {
	if cfg.Scale == 0 {
		cfg.Scale = core.AutoScale(n, d)
		for cfg.Levels > 0 && cfg.Scale>>uint(cfg.Levels) < 2 {
			cfg.Levels--
		}
	}
	return cfg
}

// extSortOptions is the engine's derivation of external-sort options for
// the case the workloads use: chunk size and spill threshold set
// explicitly, so the resident budget only has to cover the per-point
// outputs.
func extSortOptions(o core.ExternalOptions) (grid.ExtSortOptions, error) {
	if o.ChunkPoints <= 0 || o.SpillBytes == 0 {
		return grid.ExtSortOptions{}, errors.New("replay: external options need explicit ChunkPoints and SpillBytes")
	}
	return grid.ExtSortOptions{ChunkPoints: o.ChunkPoints, SpillBytes: o.SpillBytes, TempDir: o.TempDir}, nil
}

// dropLowCoefficients is the engine's preliminary coefficient denoising:
// transformed cells below eps × the largest density are dropped, and
// zero or negative coefficients always.
func dropLowCoefficients(t *grid.FlatGrid, eps float64) {
	var maxD float64
	for _, v := range t.Vals {
		if v > maxD {
			maxD = v
		}
	}
	cut := eps * maxD
	if cut <= 0 {
		cut = 1e-12
	}
	t.DropBelow(cut)
}

// relabelBySize is the engine's component renumbering: components ordered
// by decreasing mass (ties by id), those below the cell-count or
// mass-fraction floor demoted to noise except the heaviest. It returns the
// per-cell labels and the surviving cluster count.
func relabelBySize(kept *grid.FlatGrid, comp []int32, ncomp, minCells int, minMassFrac float64) ([]int32, int) {
	cells := make([]int32, ncomp)
	mass := grid.ComponentMasses(kept, comp, ncomp)
	for _, l := range comp {
		cells[l]++
	}
	order := make([]int32, ncomp)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if mass[order[a]] != mass[order[b]] {
			return mass[order[a]] > mass[order[b]]
		}
		return order[a] < order[b]
	})
	remap := make([]int32, ncomp)
	next := int32(0)
	var heaviest float64
	if ncomp > 0 {
		heaviest = mass[order[0]]
	}
	for rank, c := range order {
		tooSmall := int(cells[c]) < minCells || (minMassFrac > 0 && mass[c] < minMassFrac*heaviest)
		if tooSmall && rank > 0 {
			remap[c] = -1
			continue
		}
		remap[c] = next
		next++
	}
	out := make([]int32, len(comp))
	for i, l := range comp {
		out[i] = remap[l]
	}
	return out, int(next)
}
