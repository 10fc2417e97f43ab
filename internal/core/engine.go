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
// pooled (radix/transform buffers in internal/grid; per-level grid clones
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
// exactly one worker in a fixed input order, and component numbering
// reproduces the map BFS order. For bases whose filter taps are dyadic
// rationals — Haar, CDF(2,2) (the default) and CDF(1,3) — the arithmetic
// is exact and the Engine matches the sequential reference Cluster label
// for label, threshold included. DB4/DB6 taps are irrational, so there the
// two paths (and individual runs of the map-based path itself, whose
// accumulation follows map iteration order) can differ within last-ULP
// rounding, which can move a cell that sits exactly on the threshold.
type Engine struct {
	cfg     Config
	workers int
	// grids pools the per-level transform clones of a multi-resolution pass,
	// curves the sorted-density scratch and tables the ancestor label table
	// of every finishing pass, so clustering L levels does not allocate L
	// fresh copies of each.
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

// getGrid clones src into a pooled FlatGrid; putGrid returns it.
func (e *Engine) getGrid(src *grid.FlatGrid) *grid.FlatGrid {
	return src.CloneInto(e.getEmptyGrid())
}

// getEmptyGrid takes a pooled FlatGrid without copying anything into it —
// the landing buffer for unpacking a compressed base grid.
func (e *Engine) getEmptyGrid() *grid.FlatGrid {
	g, _ := e.grids.Get().(*grid.FlatGrid)
	if g == nil {
		g = &grid.FlatGrid{}
	}
	return g
}

func (e *Engine) putGrid(g *grid.FlatGrid) { e.grids.Put(g) }

// ClusterDatasetContext runs the parallel AdaWave pipeline on a flat
// row-major dataset; the result is identical to the sequential Cluster on
// the same rows. Every stage polls ctx at its shard boundaries, and a
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
// be resolved (see resolveScaleND). The transform stage runs on a pooled
// private unpacking (the float64 densities it needs), and the assignment
// stage streams ancestor labels block by block off the compressed base
// directly.
func (e *Engine) clusterFromPacked(ctx context.Context, base *grid.PackedGrid, ids []int32, cfg Config, w int) (*Result, error) {
	st := &pipeState{cfg: cfg, w: w, pbase: base, ids: ids}
	return e.runStages(ctx, st, stageList[stageFromTransform:])
}

// ClusterMultiResolutionDatasetContext runs the pipeline at every
// decomposition level from 1 to maxLevels in a single pass, like the
// sequential ClusterMultiResolution (which ignores cfg.Levels). Points are
// quantized once; the per-level threshold/components/assignment stages run
// concurrently, each level's assignment rebuilt from one pass over the
// cells (O(cells·log cells + n) per level). ctx cancels every stage.
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
// ClusterMultiResolutionDatasetContext, shared with the streaming Session: the
// transform chain starts from an existing canonical base grid with memoized
// point ids, and the per-level finishing passes run concurrently. base is
// only read.
func (e *Engine) multiResolutionFromBase(ctx context.Context, base *grid.FlatGrid, ids []int32, cfg Config, maxLevels, w int) ([]*Result, error) {
	// The transform chain ends once any dimension shrinks below two cells,
	// so levels beyond log2(max size) can never produce a result — clamp
	// before sizing the result slices, so a caller-supplied (possibly
	// attacker-supplied, via adawave-serve's ?levels=) count cannot force
	// a giant upfront allocation.
	maxUseful := 0
	for _, s := range base.Size {
		bits := 0
		for v := s; v >= 2; v >>= 1 {
			bits++
		}
		if bits > maxUseful {
			maxUseful = bits
		}
	}
	if maxLevels > maxUseful {
		maxLevels = maxUseful
	}
	cellsQuantized := base.Len()
	results := make([]*Result, maxLevels)
	errs := make([]error, maxLevels)
	var wg sync.WaitGroup
	cur := base
	levels := 0
	for level := 1; level <= maxLevels; level++ {
		tooSmall := false
		for _, s := range cur.Size {
			if s < 2 {
				tooSmall = true
				break
			}
		}
		if tooSmall {
			break
		}
		next, err := grid.TransformFlatCtx(ctx, cur, cfg.Basis, w)
		if err != nil {
			// In-flight finishers of earlier levels drain before the
			// cancellation (or transform failure) is reported.
			wg.Wait()
			return nil, err
		}
		cur = next
		t := e.getGrid(cur)
		levels = level
		wg.Add(1)
		go func(level int, t *grid.FlatGrid) {
			defer wg.Done()
			defer e.putGrid(t)
			dropLowCoefficientsFlat(t, cfg.CoeffEpsilon)
			res, err := e.finishClusteringFlat(ctx, t, base, ids, level, cfg, w)
			if err != nil {
				errs[level-1] = err
				return
			}
			res.CellsQuantized = cellsQuantized
			results[level-1] = res
		}(level, t)
	}
	wg.Wait()
	for _, err := range errs[:levels] {
		if err != nil {
			return nil, err
		}
	}
	return results[:levels], nil
}

// dropLowCoefficientsFlat mirrors dropLowCoefficients on the flat grid.
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

// relabelBySizeFlat is relabelBySize on flat component labels: renumber
// components 0…k−1 in decreasing mass order (ties by original id, which is
// the map engine's original label) and demote components below the
// cell-count or mass-fraction floor to −1, never demoting the heaviest.
// It returns the per-cell new labels and the surviving cluster count.
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
