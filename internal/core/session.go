package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/persist"
	"adawave/internal/pointset"
)

// Session is a long-lived, incrementally maintained clustering: instead of
// paying the full quantize→transform→threshold→connect pipeline on an
// immutable point slice, a Session owns a live base grid plus the memoized
// per-point cell ids and folds mutations in as they arrive. AdaWave's grid
// masses are additive point counts, so an appended batch quantizes into its
// own small canonical grid and 2-way merges into the live grid by cell id —
// O(cells_live + cells_delta), never re-touching the points already folded —
// and a removed point subtracts its unit mass in place, leaving a zero-mass
// tombstone that is swept on the next merge or compaction. Only the
// downstream stages (transform, threshold, components, assignment), which
// read the grid and never the points, re-run on the next read.
//
// Lifecycle: Append and Remove mark the session dirty and return
// immediately; Labels, Result and MultiResolutionContext lazily fold the
// pending mutations and recompute, then cache until the next mutation. A
// Session is safe for one writer and many concurrent readers: reads of a
// clean session share a read lock, and the recompute (like every mutation)
// runs under the write lock.
//
// Equivalence guarantee: after any sequence of Append and Remove calls, the
// session's labels are bit-identical to a one-shot Engine.ClusterDataset
// over the current point set, and MultiResolutionContext matches
// ClusterMultiResolutionDatasetContext the same way. The incremental path is used
// only while it provably preserves the one-shot quantization frame — the
// session falls back to a full requantization when a batch expands the
// bounding box, when a removal lets go of a boundary-touching point (the
// box may shrink), or when the automatic scale resolves differently for the
// new point count. Everything downstream of quantization is byte-for-byte
// the one-shot code path.
//
// With an embedding configured the guarantee is stated in projected space:
// the embedder is fitted once, on the first appended batch, then frozen, and
// the session's labels are bit-identical to a one-shot run over its own
// projection of the current rows. For the data-independent random
// projection that coincides with Engine.ClusterDataset on the raw rows
// exactly; for PCA the one-shot path fits on the full input instead, so the
// two agree only when fitted on the same rows.
type Session struct {
	eng *Engine

	mu sync.RWMutex
	// ds owns every current point, row-major; rows [0, folded) are folded
	// into base/ids, rows [folded, ds.N) are pending appends.
	ds *pointset.Dataset
	// With an embedding configured, emb is the fitted embedder — fitted
	// once, on the first appended batch, and never refit, so the projection
	// (and therefore every label) is a deterministic function of the append
	// sequence — and eds mirrors ds row for row in projected space. The
	// quantizer, grids and bounding-box checks all live in projected space;
	// ds keeps the raw rows for checkpoints. Both stay nil without an
	// embedding.
	emb embed.Embedder
	eds *pointset.Dataset
	q   *grid.Quantizer
	// base is the live canonical grid (may hold tombstones), block-
	// compressed (~3–5× fewer resident bytes than the flat layout, same
	// cells in the same order); nil until the first fold.
	base   *grid.PackedGrid
	ids    []int32 // memoized base-cell id per folded point
	scale  int     // resolved scale the grid was quantized at
	folded int
	// tombstoned records that a removal zeroed at least one cell; rebuild
	// forces a full requantization (bounding box may have changed).
	tombstoned bool
	rebuild    bool
	dirty      bool // cached res is stale
	res        *Result
}

// NewSession validates cfg and returns an empty streaming session running
// the given number of workers per stage (≤ 0 selects GOMAXPROCS).
func NewSession(cfg Config, workers int) (*Session, error) {
	eng, err := NewEngine(cfg, workers)
	if err != nil {
		return nil, err
	}
	return eng.NewSession(), nil
}

// NewSession returns an empty streaming session sharing the engine's
// configuration and pooled buffers. Any number of sessions may share one
// engine.
func (e *Engine) NewSession() *Session {
	return &Session{eng: e, ds: &pointset.Dataset{}, dirty: true}
}

// Config returns the session's (validated) configuration.
func (s *Session) Config() Config { return s.eng.Config() }

// Len returns the current number of points.
func (s *Session) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ds.N
}

// Dim returns the dimensionality, 0 before the first append.
func (s *Session) Dim() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ds.D
}

// Append adds a batch of points (copied out of batch) and marks the session
// dirty; the clustering is not recomputed until the next read. The first
// batch fixes the session's dimensionality.
func (s *Session) Append(batch *pointset.Dataset) error {
	return s.AppendContext(context.Background(), batch)
}

// AppendContext is Append with cancellation: a context already dead when the
// mutation would apply returns its taxonomy error and leaves the session
// untouched, so an aborted client request never half-commits.
func (s *Session) AppendContext(ctx context.Context, batch *pointset.Dataset) error {
	if batch == nil || batch.N == 0 {
		return nil
	}
	if batch.D == 0 {
		return grid.InvalidInput(fmt.Errorf("core: cannot append zero-dimensional points"))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := grid.CtxErr(ctx); err != nil {
		return err
	}
	if s.ds.N == 0 && s.ds.D == 0 {
		s.ds.D = batch.D
	}
	if batch.D != s.ds.D {
		return grid.InvalidInput(fmt.Errorf("core: appending %d-dimensional points to a %d-dimensional session", batch.D, s.ds.D))
	}
	if s.eng.cfg.Embedding.Enabled() {
		// Fit once, on the first batch ever appended (the WAL journals
		// batches in order, so crash recovery refits on the same rows and
		// reproduces the projection exactly); every batch then projects
		// through the frozen embedder before anything commits, so a
		// rejected batch leaves the session untouched.
		emb := s.emb
		if emb == nil {
			var err error
			if emb, err = embed.New(s.eng.cfg.Embedding); err != nil {
				return err
			}
			if err := emb.FitCtx(ctx, batch, s.eng.effectiveWorkers()); err != nil {
				return err
			}
		}
		pbatch, err := emb.TransformCtx(ctx, batch, s.eng.effectiveWorkers())
		if err != nil {
			return err
		}
		s.emb = emb
		if s.eds == nil {
			s.eds = &pointset.Dataset{D: emb.OutDim()}
		}
		s.eds.Data = append(s.eds.Data, pbatch.Data...)
		s.eds.N += pbatch.N
	}
	s.ds.Data = append(s.ds.Data, batch.Data[:batch.N*batch.D]...)
	s.ds.N += batch.N
	s.dirty = true
	return nil
}

// dataset returns the rowset the grid side of the session works on: the
// projected mirror when an embedding is configured, the raw rows otherwise.
func (s *Session) dataset() *pointset.Dataset {
	if s.eds != nil {
		return s.eds
	}
	return s.ds
}

// Remove deletes the points at the given indices (into the session's
// current point order, as reported by Labels), preserving the order of the
// survivors. Folded points give their unit mass back to the live grid as a
// signed-mass subtraction — cells emptied this way become tombstones swept
// on the next read — so a removal costs O(removed + n) row compaction, not
// a requantization; only letting go of a bounding-box-touching point forces
// the full rebuild (the one-shot frame may shrink).
func (s *Session) Remove(indices []int) error {
	return s.RemoveContext(context.Background(), indices)
}

// RemoveContext is Remove with cancellation: a context already dead when the
// mutation would apply returns its taxonomy error and leaves the session
// untouched (the removal itself is O(n) row compaction and runs to
// completion once started — it is never left half-applied).
func (s *Session) RemoveContext(ctx context.Context, indices []int) error {
	if len(indices) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := grid.CtxErr(ctx); err != nil {
		return err
	}
	n, d := s.ds.N, s.ds.D
	idx := append([]int(nil), indices...)
	sort.Ints(idx)
	for k, i := range idx {
		if i < 0 || i >= n {
			return grid.InvalidInput(fmt.Errorf("core: remove index %d out of range [0,%d)", i, n))
		}
		if k > 0 && i == idx[k-1] {
			return grid.InvalidInput(fmt.Errorf("core: duplicate remove index %d", i))
		}
	}
	pds := s.dataset()
	pd := pds.D
	for _, i := range idx {
		if i >= s.folded {
			// A pending row never contributed to the grid or its bounding
			// box; deleting it cannot change the one-shot frame.
			continue
		}
		// The bounding box (like the whole grid side) lives in projected
		// space when an embedding is configured.
		if s.q != nil && s.touchesBBox(pds.Data[i*pd:(i+1)*pd]) {
			s.rebuild = true
		}
		// In-place bit-field decrement; shrinking a mass never outgrows the
		// block's encoded width.
		if s.base.DecMassAt(int(s.ids[i])) <= 0 {
			s.tombstoned = true
		}
	}
	// Compact rows (raw and, with an embedding, their projected mirror) and
	// ids in place, preserving order. Folded rows precede pending rows, and
	// survivors only move left, so ids stays aligned.
	w, k, removedFolded := 0, 0, 0
	for i := 0; i < n; i++ {
		if k < len(idx) && idx[k] == i {
			k++
			if i < s.folded {
				removedFolded++
			}
			continue
		}
		if w != i {
			copy(s.ds.Data[w*d:(w+1)*d], s.ds.Data[i*d:(i+1)*d])
			if s.eds != nil {
				copy(s.eds.Data[w*pd:(w+1)*pd], s.eds.Data[i*pd:(i+1)*pd])
			}
			if i < s.folded {
				s.ids[w] = s.ids[i]
			}
		}
		w++
	}
	s.ds.Data = s.ds.Data[:w*d]
	s.ds.N = w
	if s.eds != nil {
		s.eds.Data = s.eds.Data[:w*pd]
		s.eds.N = w
	}
	s.folded -= removedFolded
	s.ids = s.ids[:s.folded]
	s.dirty = true
	return nil
}

// touchesBBox reports whether any coordinate of row sits exactly on the
// session quantizer's bounding box (so removing the point may shrink the
// one-shot frame).
func (s *Session) touchesBBox(row []float64) bool {
	for j, v := range row {
		if v == s.q.Mins[j] || v == s.q.Maxs[j] {
			return true
		}
	}
	return false
}

// expandsBBox reports whether any pending row falls outside the session
// quantizer's bounding box (non-finite coordinates count as outside, so the
// full-rebuild path reports them exactly like the one-shot constructor).
// Like every grid-side check it reads the projected rows when an embedding
// is configured.
func (s *Session) expandsBBox() bool {
	pds := s.dataset()
	d := pds.D
	mins, maxs := s.q.Mins, s.q.Maxs
	for i := s.folded; i < pds.N; i++ {
		for j, v := range pds.Data[i*d : (i+1)*d] {
			if !(v >= mins[j] && v <= maxs[j]) {
				return true
			}
		}
	}
	return false
}

// syncLocked folds pending appends into the live grid (or requantizes from
// scratch when the incremental path cannot reproduce the one-shot frame)
// and sweeps tombstones. The caller holds the write lock. It returns the
// resolved configuration for the current point count.
//
// Cancellation safety: every cancellable step (quantizing the delta, the
// 2-way merge, the full requantization) computes into private buffers and
// only commits to the session's fields after it succeeded, so a cancelled
// fold leaves the session exactly as it was before the call — same grid,
// same ids, same dirty/pending markers — and the next read retries it.
func (s *Session) syncLocked(ctx context.Context) (Config, error) {
	// The grid side works on the projected mirror when an embedding is
	// configured — the scale resolves against the projected dimensionality,
	// exactly as the one-shot pipeline resolves it after its embed stage.
	pds := s.dataset()
	n, d := pds.N, pds.D
	if n == 0 {
		return Config{}, grid.ErrNoPoints
	}
	if err := stage(ctx, StageFold); err != nil {
		return Config{}, err
	}
	cfg := resolveScale(s.eng.cfg, n, d)
	w := s.eng.effectiveWorkers()
	if s.q == nil || s.rebuild || cfg.Scale != s.scale || s.expandsBBox() {
		q, err := grid.NewQuantizerDatasetCtx(ctx, pds, cfg.Scale, w)
		if err != nil {
			return Config{}, err
		}
		base, ids, err := q.QuantizeDatasetCtx(ctx, pds, w)
		if err != nil {
			return Config{}, err
		}
		s.base, s.q, s.ids = grid.PackFlat(base), q, ids
		s.scale = cfg.Scale
		s.folded, s.tombstoned, s.rebuild = n, false, false
		return cfg, nil
	}
	if s.folded < n {
		delta := &pointset.Dataset{Data: pds.Data[s.folded*d:], N: n - s.folded, D: d}
		dg, dids, err := s.q.QuantizeDatasetCtx(ctx, delta, w)
		if err != nil {
			return Config{}, err
		}
		// The 2-way fold streams the compressed live grid through the grid
		// package's one cell merge and re-packs the union as it is emitted:
		// live before delta on equal cells, merged mass ≤ 0 dropped.
		merged, liveRemap, deltaRemap, err := grid.MergePackedFlatCtx(ctx, s.base, dg)
		if err != nil {
			return Config{}, err
		}
		// Commit point: nothing below can fail or be cancelled.
		s.base = merged
		for i, id := range s.ids {
			s.ids[i] = liveRemap[id]
		}
		for _, id := range dids {
			s.ids = append(s.ids, deltaRemap[id])
		}
		s.folded, s.tombstoned = n, false
	} else if s.tombstoned {
		// The compaction sweep is O(cells) and never left half-done; poll
		// before starting.
		if err := grid.CtxErr(ctx); err != nil {
			return Config{}, err
		}
		if cp, remap := s.base.Compact(); remap != nil {
			for i, id := range s.ids {
				s.ids[i] = remap[id]
			}
			s.base = cp
		}
		s.tombstoned = false
	}
	return cfg, nil
}

// Result returns the clustering of the current point set, recomputing only
// if a mutation happened since the last read. The returned Result (its
// Labels included) is shared between callers and must not be modified; a
// later recompute replaces rather than mutates it, so concurrent readers
// holding an older Result stay safe.
func (s *Session) Result() (*Result, error) {
	return s.ResultContext(context.Background())
}

// ResultContext is Result with cooperative cancellation: the fold and every
// recompute stage poll ctx at shard boundaries. A cancelled read reports an
// ErrCanceled/ErrDeadlineExceeded-tagged error and leaves the session
// exactly as before the call — the live grid untouched, the pending
// mutations still pending — so the next read recomputes the identical
// result.
func (s *Session) ResultContext(ctx context.Context) (*Result, error) {
	s.mu.RLock()
	if !s.dirty {
		res := s.res
		s.mu.RUnlock()
		return res, nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty {
		cfg, err := s.syncLocked(ctx)
		if err != nil {
			return nil, err
		}
		res, err := s.eng.clusterFromPacked(ctx, s.base, s.ids, cfg, s.eng.effectiveWorkers())
		if err != nil {
			return nil, err
		}
		s.res = res
		s.dirty = false
	}
	return s.res, nil
}

// Labels returns the per-point labels of the current point set, in the
// session's point order (appends keep arrival order; removals close the
// gaps). The slice is shared — treat it as read-only.
func (s *Session) Labels() ([]int, error) {
	return s.LabelsContext(context.Background())
}

// LabelsContext is Labels with cooperative cancellation (see ResultContext).
func (s *Session) LabelsContext(ctx context.Context) ([]int, error) {
	res, err := s.ResultContext(ctx)
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// MultiResolutionContext clusters the current point set at every
// decomposition level from 1 to maxLevels in one pass over the live grid
// (points are never re-quantized), matching
// ClusterMultiResolutionDatasetContext on the same points level for level.
// Unlike ResultContext it is not cached. The write lock is held only to
// fold pending mutations and snapshot the grid state; the multi-level pass
// computes on a private copy, so concurrent readers proceed during the
// compute and a cancelled call cannot disturb the session state at all.
func (s *Session) MultiResolutionContext(ctx context.Context, maxLevels int) ([]*Result, error) {
	if maxLevels < 1 {
		maxLevels = 1
	}
	s.mu.Lock()
	cfg, err := s.syncLocked(ctx)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Unpack under the lock — the private copy and the integer→float64
	// mass promotion in one pass: the levels are clustered after the lock
	// is released, while a concurrent Remove mutates base masses and ids in
	// place.
	base := s.base.Unpack()
	ids := append([]int32(nil), s.ids...)
	s.mu.Unlock()
	return s.eng.multiResolutionFromBase(ctx, base, ids, cfg, maxLevels, s.eng.effectiveWorkers())
}

// ConfigFingerprint renders cfg as the persisted configuration fingerprint
// — the single canonical renderer shared by Session.CheckpointContext,
// RestoreSession and the serving layer's config.json, so the two sides can
// never drift apart. The basis is named (the built-in filter banks are
// fixed by name); the threshold strategy is rendered with its parameter
// values (%#v of the concrete strategy), so restoring a checkpoint under
// e.g. a FixedThreshold with a different cut is a detected mismatch, not a
// silent divergence.
func ConfigFingerprint(cfg Config) persist.ConfigMeta {
	conn := "faces"
	if cfg.Connectivity == grid.Full {
		conn = "full"
	}
	return persist.ConfigMeta{
		Scale:           cfg.Scale,
		Levels:          cfg.Levels,
		Basis:           cfg.Basis.Name,
		Connectivity:    conn,
		CoeffEpsilon:    cfg.CoeffEpsilon,
		Threshold:       fmt.Sprintf("%s %#v", cfg.Threshold.Name(), cfg.Threshold),
		MinClusterCells: cfg.MinClusterCells,
		MinClusterMass:  cfg.MinClusterMass,
		Embedding:       cfg.Embedding.String(),
	}
}

// CheckpointContext serializes the session's full state to w in the
// versioned, CRC-framed checkpoint format of internal/persist:
// configuration fingerprint, every current point row, the memoized
// per-point cell ids, the quantizer frame and the live grid. It runs under
// the writer lock and folds pending mutations first (which also sweeps any
// removal tombstones), so the written grid is canonical and compact at any
// point in an append/remove sequence — a checkpoint taken between a Remove
// and the next read round-trips like any other. RestoreSession rebuilds a
// session that reproduces this one's labels bit for bit without
// requantizing a point. A cancelled fold writes nothing and leaves the
// session untouched; the serialization itself, once started, runs to
// completion (it is the caller's write path, not engine compute).
func (s *Session) CheckpointContext(ctx context.Context, w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := persist.SessionState{Config: ConfigFingerprint(s.eng.cfg), DS: s.ds}
	// A fitted embedder persists even with zero points (all rows removed):
	// it was fitted on the first batch ever appended and must never refit.
	st.Embedder = s.emb
	if s.ds.N > 0 {
		if _, err := s.syncLocked(ctx); err != nil {
			return err
		}
		st.IDs, st.Scale, st.Grid = s.ids, s.scale, s.base
		st.Mins, st.Maxs = s.q.Mins, s.q.Maxs
	}
	return persist.WriteSessionCheckpoint(w, &st)
}

// RestoreSession rebuilds a streaming session from a checkpoint written by
// Session.CheckpointContext, attached to eng (which must be configured exactly as
// the checkpointing engine was; a differing fingerprint is reported as
// persist.ErrConfigMismatch, since restoring under a different
// configuration would silently break the bit-identical equivalence
// guarantee). The restored session is warm: its grid and memoized cell ids
// are adopted as-is, so the first read pays only the grid-side stages and
// subsequent appends fold in incrementally, exactly as if the process had
// never died.
func RestoreSession(r io.Reader, eng *Engine) (*Session, error) {
	st, err := persist.ReadSessionCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if err := persist.CheckConfig(st.Config, ConfigFingerprint(eng.cfg)); err != nil {
		return nil, err
	}
	s := eng.NewSession()
	s.ds = st.DS
	if st.Embedder != nil {
		// Adopt the fitted embedder and rebuild the projected mirror by
		// re-transforming the raw rows — the frozen parameters make the
		// re-projection bit-identical to the one the checkpointing session
		// quantized, so the adopted grid and ids stay consistent with it.
		s.emb = st.Embedder
		if s.eds, err = st.Embedder.TransformCtx(context.Background(), st.DS, eng.effectiveWorkers()); err != nil {
			return nil, err
		}
	}
	if st.DS.N == 0 {
		return s, nil
	}
	q, err := grid.RestoreQuantizer(st.Mins, st.Maxs, st.Scale)
	if err != nil {
		return nil, err
	}
	s.base, s.q, s.ids, s.scale = st.Grid, q, st.IDs, st.Scale
	s.folded = st.DS.N
	return s, nil
}

// ResidentBytes estimates the session's resident heap footprint: the raw
// points, the live base grid, the per-point cell memo, and the cached result.
// It never folds pending mutations — the eviction manager calls it on idle
// sessions and must not trigger compute. The estimate covers the dominant
// slices, not Go allocator overhead, so treat it as a budget input rather
// than an exact RSS.
func (s *Session) ResidentBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := int64(cap(s.ds.Data)) * 8
	if s.eds != nil {
		b += int64(cap(s.eds.Data)) * 8
	}
	if s.base != nil {
		b += s.base.Bytes()
	}
	b += int64(cap(s.ids)) * 4
	if s.res != nil {
		b += int64(cap(s.res.Labels))*8 + int64(cap(s.res.Curve))*8
	}
	return b
}

// Cells returns the number of occupied cells in the live base grid
// (tombstones excluded), folding pending mutations first.
func (s *Session) Cells() (int, error) {
	return s.CellsContext(context.Background())
}

// CellsContext is Cells with cooperative cancellation of the fold.
func (s *Session) CellsContext(ctx context.Context) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.syncLocked(ctx); err != nil {
		return 0, err
	}
	return s.base.Len(), nil
}
