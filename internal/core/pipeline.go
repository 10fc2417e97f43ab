package core

import (
	"context"
	"fmt"

	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// The pipeline as an explicit, ordered stage list. Every clustering path —
// one-shot ClusterDatasetContext, the streaming Session's re-cluster, the
// out-of-core external path, and each level of a multi-resolution pass —
// runs a contiguous slice of the same six stages over a shared pipeState:
//
//	embed → quantize → transform → threshold → connect → assign
//
// Entry points differ only in where they enter the list: a one-shot call
// runs it from the top, a Session re-enters at transform with a flat
// unpacking of its live packed base grid, the external path swaps the
// quantize stage's implementation (its merge emits a packed base, unpacked
// the same way), and a multi-resolution finisher enters at threshold with a
// per-level transform. Every stage computes on the one flat base; packed
// grids are only ever the storage a pass starts from.
// The stage runner emits each stage's name to the test hook and polls
// cancellation exactly once per boundary, so hook sequences and abort
// positions are identical to the previously fused code; the embed stage is
// skipped entirely (no hook emission) when no embedding is configured.

// pipeState carries one clustering pass's intermediate products between
// stages. A state is used by exactly one pass and never shared.
type pipeState struct {
	cfg Config
	w   int
	// levels is the transform depth reported in the Result and used by the
	// ancestor lookup; the transform stage sets it from cfg.Levels, and a
	// multi-resolution finisher pins it to its own level.
	levels int

	// ds is the input rowset; the embed stage replaces it with the
	// projection.
	ds *pointset.Dataset
	// emb is the fitted embedder. Normally the embed stage fits it on ds;
	// a caller that already holds a fitted embedder (a restored Session)
	// presets it and the stage only transforms.
	emb embed.Embedder
	// ext selects the out-of-core quantizer when non-nil.
	ext *ExternalOptions

	// base is the canonical quantization grid every stage reads: the
	// one-shot quantizer's output, or the Engine's pooled unpacking of a
	// packed base (a Session's live grid, the external merge) that the
	// pass cleanup returns. Stages only read it, so it stays in the
	// canonical order the memoized ids index into.
	base *grid.FlatGrid
	ids  []int32 // memoized point→cell indexes into the base

	t          *grid.FlatGrid // transformed (and coefficient-denoised) grid
	kept       *grid.FlatGrid // cells surviving the threshold
	keptLabels []int32        // per-kept-cell component labels

	res  *Result
	done bool // short-circuit: remaining stages have nothing to do

	// cleanups run (reverse order) when the pass finishes, success or not —
	// pooled buffers go back even on a cancelled run.
	cleanups []func()
}

// pipeStage is one named step of the stage list.
type pipeStage struct {
	name string
	run  func(*Engine, context.Context, *pipeState) error
}

// stageList is the pipeline. Slices of it are the re-entry points:
// stageList[stageFromTransform:] is the Session's path, stageList[stageFromThreshold:]
// a multi-resolution finisher's.
var stageList = []pipeStage{
	{StageEmbed, (*Engine).stageEmbed},
	{StageQuantize, (*Engine).stageQuantize},
	{StageTransform, (*Engine).stageTransform},
	{StageThreshold, (*Engine).stageThreshold},
	{StageConnect, (*Engine).stageConnect},
	{StageAssign, (*Engine).stageAssign},
}

// Indexes into stageList for the documented re-entry points.
const (
	stageFromTop       = 0
	stageFromTransform = 2
	stageFromThreshold = 3
	stagesThroughQuant = 2 // run [embed, quantize] only
)

// runStages executes a contiguous slice of the stage list over st and
// returns the finished Result. Each boundary notifies the test hook and
// polls cancellation; registered cleanups run on every exit path.
func (e *Engine) runStages(ctx context.Context, st *pipeState, stages []pipeStage) (*Result, error) {
	defer func() {
		for i := len(st.cleanups) - 1; i >= 0; i-- {
			st.cleanups[i]()
		}
	}()
	for _, s := range stages {
		if s.name == StageEmbed && !st.cfg.Embedding.Enabled() {
			continue
		}
		if err := stage(ctx, s.name); err != nil {
			return nil, err
		}
		if err := s.run(e, ctx, st); err != nil {
			return nil, err
		}
		if st.done {
			break
		}
	}
	return st.res, nil
}

// stageEmbed projects the input rows through the configured embedding. The
// embedder is fitted here, on the very rows being clustered, unless the
// caller preset a fitted one (a Session fits once at first append and then
// presets it forever, so its projection never drifts across folds).
func (e *Engine) stageEmbed(ctx context.Context, st *pipeState) error {
	if st.emb == nil {
		emb, err := embed.New(st.cfg.Embedding)
		if err != nil {
			return err
		}
		if err := emb.FitCtx(ctx, st.ds, st.w); err != nil {
			return err
		}
		st.emb = emb
	}
	pds, err := st.emb.TransformCtx(ctx, st.ds, st.w)
	if err != nil {
		return err
	}
	if st.ext != nil {
		// The projected copy is resident; charge it against the external
		// budget so the quantizer's derived chunk sizes stay honest.
		budget := st.ext.MaxResidentBytes
		if budget <= 0 {
			budget = DefaultMaxResidentBytes
		}
		budget -= int64(len(pds.Data)) * 8
		if budget <= 0 {
			return grid.InvalidInput(fmt.Errorf(
				"core: resident budget cannot hold the %d×%d projected rows; raise ExternalOptions.MaxResidentBytes",
				pds.N, pds.D))
		}
		st.ext.MaxResidentBytes = budget
	}
	st.ds = pds
	return nil
}

// stageQuantize resolves the effective scale against the (possibly
// projected) rows and builds the canonical base grid plus the per-point
// cell memo — in RAM normally, through the spill-to-disk external sort when
// st.ext is set.
func (e *Engine) stageQuantize(ctx context.Context, st *pipeState) error {
	st.cfg = resolveScale(st.cfg, st.ds.N, st.ds.D)
	q, err := grid.NewQuantizerDatasetCtx(ctx, st.ds, st.cfg.Scale, st.w)
	if err != nil {
		return err
	}
	if st.ext != nil {
		ext, err := deriveExtSort(*st.ext, st.ds.N, st.ds.D)
		if err != nil {
			return err
		}
		// The merged grid comes out block-compressed straight from the
		// grid package's cell merge over the sorted runs; the pass computes
		// on one flat unpacking of it.
		var p *grid.PackedGrid
		if p, st.ids, err = q.QuantizeDatasetExternalPackedCtx(ctx, st.ds, st.w, ext); err != nil {
			return err
		}
		e.unpackBase(st, p)
		return nil
	}
	st.base, st.ids, err = q.QuantizeDatasetCtx(ctx, st.ds, st.w)
	return err
}

// stageTransform runs the separable wavelet chain and the preliminary
// coefficient denoising. The transform only reads the base, so it stays in
// the canonical order the assignment stage's memoized ids index into.
func (e *Engine) stageTransform(ctx context.Context, st *pipeState) error {
	st.levels = st.cfg.Levels
	if st.cfg.Levels > 0 {
		levels, err := grid.TransformLevelsFlatCtx(ctx, st.base, st.cfg.Basis, st.cfg.Levels, st.w)
		if err != nil {
			return err
		}
		st.t = levels[len(levels)-1]
	} else {
		// The ablation path skips the transform; finish on a copy so the
		// base grid (and the ids into it) survives coefficient dropping.
		st.t = st.base.Clone()
	}
	dropLowCoefficientsFlat(st.t, st.cfg.CoeffEpsilon)
	return nil
}

// stageThreshold initializes the Result, sorts the density curve and picks
// the adaptive noise cut. An empty transformed grid short-circuits the rest
// of the pipeline: every point is noise.
func (e *Engine) stageThreshold(ctx context.Context, st *pipeState) error {
	res := &Result{
		CellsTransformed: st.t.Len(),
		Levels:           st.levels,
		Scale:            st.cfg.Scale,
	}
	res.Labels = make([]int, len(st.ids))
	st.res = res
	if st.t.Len() == 0 {
		for i := range res.Labels {
			res.Labels[i] = Noise
		}
		res.CellsQuantized = st.base.Len()
		st.done = true
		return nil
	}
	// Sort the density curve in a pooled buffer; Result.Curve gets an
	// exact-size copy because it outlives the call.
	buf, _ := e.curves.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	*buf = st.t.SortedDensitiesInto(*buf)
	res.Curve = append(make([]float64, 0, len(*buf)), *buf...)
	e.curves.Put(buf)
	res.Threshold, res.ThresholdIndex = st.cfg.Threshold.Cut(res.Curve)
	kept := st.t.Threshold(res.Threshold)
	if kept.Len() == 0 {
		kept = st.t
	}
	res.CellsKept = kept.Len()
	st.kept = kept
	return nil
}

// stageConnect labels connected components of the surviving cells and
// renumbers them by decreasing mass, demoting sub-floor components to noise.
func (e *Engine) stageConnect(ctx context.Context, st *pipeState) error {
	comp, ncomp, err := grid.ComponentsFlatAutoCtx(ctx, st.kept, st.cfg.Connectivity, st.w)
	if err != nil {
		return err
	}
	st.keptLabels, st.res.NumClusters = relabelBySizeFlat(st.kept, comp, ncomp, st.cfg.MinClusterCells, st.cfg.MinClusterMass)
	return nil
}

// stageAssign maps every point back through the per-level ancestor table:
// one pass over the base cells builds the cell→label table, then assignment
// is a single array lookup per point (the table stores Noise as −1, which
// is the Noise label itself).
func (e *Engine) stageAssign(ctx context.Context, st *pipeState) error {
	tbl, _ := e.tables.Get().(*[]int32)
	if tbl == nil {
		tbl = new([]int32)
	}
	cellLabels, err := st.base.AncestorLabelsCtx(ctx, *tbl, st.kept, st.levels, st.keptLabels, st.w)
	*tbl = cellLabels
	if err != nil {
		// The pooled table goes back even on a cancelled pass.
		e.tables.Put(tbl)
		return err
	}
	res, ids := st.res, st.ids
	grid.ParallelRangesCtx(ctx, len(ids), st.w, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			res.Labels[i] = int(cellLabels[ids[i]])
		}
	})
	e.tables.Put(tbl)
	res.CellsQuantized = st.base.Len()
	return nil
}
