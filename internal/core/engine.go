package core

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// Engine is the parallel, allocation-lean AdaWave pipeline: quantization is
// sharded across workers with exactly-merged per-shard accumulators (each
// shard counted into a dense cell table when the cell space Scaleᵈ is no
// larger than its rows, radix-sorted otherwise), the separable wavelet
// transform merges the slabs of the canonical grid in parallel without
// reordering it or rebuilding coordinate maps, components are labeled by
// one union-find over the neighbor edges that range-sharded workers find by
// binary search in canonical order, and point assignment is a single array
// lookup per point through a memoized point→cell table. Scratch buffers are
// pooled (radix/transform buffers in internal/grid; base-grid unpackings
// and density-curve buffers on the Engine itself), so a long-lived Engine
// serves many requests without per-call allocation storms. An Engine is
// safe for concurrent use.
//
// The point-facing layer is point-major: ClusterDatasetContext and
// ClusterMultiResolutionDatasetContext consume a flat row-major
// pointset.Dataset (one backing slice, no per-point allocation or pointer
// chase), each point's base-cell index is computed once during
// quantization, and every per-level assignment pass is rebuilt from one pass
// over the *cells* (the ancestor label table) instead of recomputing
// coordinates and searching per point.
//
// The Engine's output does not depend on the worker count: shard merges
// sum integer masses exactly, each transform output cell is accumulated by
// exactly one worker in ascending input-coordinate order, components are
// numbered by their first cell, and component masses are summed in
// canonical cell order. The test-only sequential reference in
// internal/oracle does every sum in the same order, and the Engine matches
// it label for label, threshold and density curve included, for every
// basis — the irrational DB4/DB6 taps as well as the dyadic ones.
type Engine struct {
	cfg     Config
	workers int
	// grids pools the unpacking of a packed base grid, curves the
	// sorted-density scratch and tables the ancestor label table of every
	// finishing pass, so repeated passes do not allocate fresh copies of
	// each.
	grids  sync.Pool
	curves sync.Pool
	tables sync.Pool
}

// NewEngine validates cfg and returns an engine running the given number of
// worker goroutines per stage (≤ 0 selects runtime.GOMAXPROCS(0) at each
// call). The configuration is fixed for the engine's lifetime.
func NewEngine(cfg Config, workers int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, workers: workers}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Workers returns the configured worker count (0 = GOMAXPROCS).
func (e *Engine) Workers() int {
	if e.workers <= 0 {
		return 0
	}
	return e.workers
}

func (e *Engine) effectiveWorkers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// getEmptyGrid takes a pooled FlatGrid — the landing buffer for unpacking
// a compressed base grid; putGrid returns it.
func (e *Engine) getEmptyGrid() *grid.FlatGrid {
	g, _ := e.grids.Get().(*grid.FlatGrid)
	if g == nil {
		g = &grid.FlatGrid{}
	}
	return g
}

func (e *Engine) putGrid(g *grid.FlatGrid) { e.grids.Put(g) }

// ClusterDatasetContext runs the parallel AdaWave pipeline on a flat
// row-major dataset. Every stage polls ctx at its shard boundaries, and a
// cancelled run unwinds cleanly (pooled buffers returned, no partial
// result) with an ErrCanceled- or ErrDeadlineExceeded-tagged error.
func (e *Engine) ClusterDatasetContext(ctx context.Context, ds *pointset.Dataset) (*Result, error) {
	if ds == nil || ds.N == 0 {
		return nil, grid.ErrNoPoints
	}
	st := &pipeState{cfg: e.cfg, w: e.effectiveWorkers(), ds: ds}
	return e.runStages(ctx, st, stageList[stageFromTop:])
}

// clusterFromPacked re-enters the stage list at the transform with an
// existing canonical base grid and memoized per-point cell ids — the
// streaming Session's path: a live grid maintained by incremental merges
// feeds the identical downstream stages, so an incrementally built base
// yields the same Result as a one-shot run, bit for bit. cfg must already
// be resolved (see resolveScale). The transform stage runs on a pooled
// private unpacking (the float64 densities it needs), and the assignment
// stage streams ancestor labels block by block off the compressed base
// directly.
func (e *Engine) clusterFromPacked(ctx context.Context, base *grid.PackedGrid, ids []int32, cfg Config, w int) (*Result, error) {
	st := &pipeState{cfg: cfg, w: w, pbase: base, ids: ids}
	return e.runStages(ctx, st, stageList[stageFromTransform:])
}

// ClusterMultiResolutionDatasetContext runs the pipeline at every
// decomposition level from 1 to maxLevels in a single pass (cfg.Levels is
// ignored); level ℓ's Result equals a one-shot run with Levels = ℓ. Points
// are quantized and transformed once; the per-level threshold/components/
// assignment stages run concurrently, each level's assignment rebuilt from
// one pass over the cells (O(cells·log cells + n) per level). ctx cancels
// every stage.
func (e *Engine) ClusterMultiResolutionDatasetContext(ctx context.Context, ds *pointset.Dataset, maxLevels int) ([]*Result, error) {
	if maxLevels < 1 {
		maxLevels = 1
	}
	if ds == nil || ds.N == 0 {
		return nil, grid.ErrNoPoints
	}
	st := &pipeState{cfg: e.cfg, w: e.effectiveWorkers(), ds: ds}
	if _, err := e.runStages(ctx, st, stageList[:stagesThroughQuant]); err != nil {
		return nil, err
	}
	return e.multiResolutionFromBase(ctx, st.base, st.ids, st.cfg, maxLevels, st.w)
}

// multiResolutionFromBase is the post-quantization half of
// ClusterMultiResolutionDatasetContext, shared with the streaming Session:
// one transform chain from an existing canonical base grid with memoized
// point ids, then concurrent per-level finishing passes. base is only read.
func (e *Engine) multiResolutionFromBase(ctx context.Context, base *grid.FlatGrid, ids []int32, cfg Config, maxLevels, w int) ([]*Result, error) {
	// The chain ends once any dimension would shrink below two cells. Clamp
	// to that before transforming, so a caller-supplied (possibly
	// attacker-supplied, via adawave-serve's ?levels=) count cannot force a
	// giant upfront allocation.
	for _, s := range base.Size {
		n := 0
		for ; s >= 2 && n < maxLevels; s = (s + 1) / 2 {
			n++
		}
		maxLevels = n
	}
	levels, err := grid.TransformLevelsFlatCtx(ctx, base, cfg.Basis, maxLevels, w)
	if err != nil {
		return nil, err
	}
	// The levels are fresh grids owned here, so each finisher denoises its
	// own level in place.
	results := make([]*Result, len(levels))
	errs := make([]error, len(levels))
	var wg sync.WaitGroup
	for l, t := range levels {
		wg.Add(1)
		go func(l int, t *grid.FlatGrid) {
			defer wg.Done()
			dropLowCoefficientsFlat(t, cfg.CoeffEpsilon)
			results[l], errs[l] = e.finishClusteringFlat(ctx, t, base, ids, l+1, cfg, w)
		}(l, t)
	}
	wg.Wait()
	for l, err := range errs {
		if err != nil {
			return nil, err
		}
		results[l].CellsQuantized = base.Len()
	}
	return results, nil
}

// dropLowCoefficientsFlat implements the paper's “remove … the low value
// of scaling coefficients”: cells below eps × (max density) are discarded,
// and zero or negative coefficients always are.
func dropLowCoefficientsFlat(t *grid.FlatGrid, eps float64) {
	var maxD float64
	for _, v := range t.Vals {
		if v > maxD {
			maxD = v
		}
	}
	cut := eps * maxD
	if cut <= 0 {
		cut = 1e-12 // always remove zero/negative coefficients
	}
	t.DropBelow(cut)
}

// ancestorGrid is the assignment base of a finishing pass: either
// representation of the canonical quantization grid can map each of its
// cells to a kept-grid ancestor label (flat: a cell-range-parallel lookup;
// packed: block-parallel decode-and-lookup).
type ancestorGrid interface {
	AncestorLabelsCtx(ctx context.Context, dst []int32, kept *grid.FlatGrid, levels int, keptLabels []int32, workers int) ([]int32, error)
}

// finishClusteringFlat re-enters the stage list at the threshold — the
// per-level finisher of a multi-resolution pass (threshold, components,
// assignment on an already-transformed grid; steps 3–6 of Alg. 1). t must
// be in canonical cell order (quantization and the full transform guarantee
// it) and is owned by the caller; base is the canonical-order quantization
// grid (in either representation), read-only, and ids holds each point's
// memoized index into it.
func (e *Engine) finishClusteringFlat(ctx context.Context, t *grid.FlatGrid, base ancestorGrid, ids []int32, levels int, cfg Config, workers int) (*Result, error) {
	st := &pipeState{cfg: cfg, w: workers, t: t, abase: base, ids: ids, levels: levels}
	return e.runStages(ctx, st, stageList[stageFromThreshold:])
}

// relabelBySizeFlat renumbers components 0…k−1 in decreasing mass order
// (so label 0 is always the heaviest cluster; ties by original id) and
// demotes components below the cell-count or mass-fraction floor to −1,
// never demoting the heaviest: a non-empty grid always yields at least one
// cluster. It returns the per-cell new labels and the surviving cluster
// count.
func relabelBySizeFlat(kept *grid.FlatGrid, comp []int32, ncomp, minCells int, minMassFrac float64) ([]int32, int) {
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
