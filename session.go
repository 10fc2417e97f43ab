package adawave

import (
	"context"
	"io"

	"adawave/internal/core"
)

// Session is a long-lived, incrementally maintained clustering — the
// streaming counterpart of Clusterer. Feed points in over time with
// AppendContext (and take them back out with RemoveContext); the session
// keeps its sparse density grid warm between requests, folding each delta
// batch in by one O(cells) merge instead of requantizing every point, and
// lazily re-runs only the grid-side stages (wavelet transform, adaptive
// threshold, connected components) on the next read.
//
// The invalidation model: mutations never compute anything — they mark the
// session dirty and return. The first read after a mutation folds the
// pending deltas into the live grid and recomputes; subsequent reads of a
// clean session return the cached Result under a shared read lock. A
// Session is safe for one writer and many concurrent readers.
//
// Equivalence guarantee: after any sequence of appends and removes the
// labels are bit-identical to a one-shot Clusterer.ClusterDatasetContext
// over the current point set. The incremental merge is used only while it
// provably preserves the one-shot quantization frame; a batch that expands
// the bounding box, a removal that lets go of a boundary-touching point, or
// an automatic scale change falls back to full requantization, so the
// guarantee holds unconditionally.
type Session struct {
	s *core.Session
}

// NewSession returns an empty streaming session sharing this clusterer's
// configuration, workers and pooled buffers.
func (c *Clusterer) NewSession() *Session {
	return &Session{s: c.eng.NewSession()}
}

// AppendContext adds a batch of points (copied; the caller keeps ownership
// of ds; slice callers convert with FromSlices) and marks the session dirty.
// The first batch fixes the dimensionality. A context already dead when the
// mutation would apply returns an ErrCanceled/ErrDeadlineExceeded-tagged
// error and leaves the session untouched.
func (s *Session) AppendContext(ctx context.Context, ds *Dataset) error {
	return s.s.AppendContext(ctx, ds)
}

// RemoveContext deletes the points at the given indices in the session's
// current point order, preserving the order of the survivors. Cancellation
// behaves as in AppendContext.
func (s *Session) RemoveContext(ctx context.Context, indices []int) error {
	return s.s.RemoveContext(ctx, indices)
}

// LabelsContext returns the per-point labels of the current point set
// (appends keep arrival order; removals close the gaps), recomputing only if
// the session is dirty. The slice is shared — treat it as read-only.
// Cancellation behaves as in ResultContext.
func (s *Session) LabelsContext(ctx context.Context) ([]int, error) {
	return s.s.LabelsContext(ctx)
}

// ResultContext returns the full clustering result of the current point
// set, recomputing only if the session is dirty. The Result is shared
// between readers and must not be modified. The lazy fold and every
// recompute stage poll ctx at shard boundaries, and a cancelled read leaves the session exactly as before the call — pending mutations still
// pending, the live grid intact — so the next read recomputes the identical
// result. The error is matched by errors.Is against ErrCanceled or
// ErrDeadlineExceeded.
func (s *Session) ResultContext(ctx context.Context) (*Result, error) {
	return s.s.ResultContext(ctx)
}

// MultiResolutionContext clusters the current point set at every
// decomposition level from 1 to maxLevels in one pass over the live grid,
// without re-quantizing any point. It computes on a private clone, so a
// cancelled call cannot disturb the session state.
func (s *Session) MultiResolutionContext(ctx context.Context, maxLevels int) ([]*Result, error) {
	return s.s.MultiResolutionContext(ctx, maxLevels)
}

// Len returns the current number of points.
func (s *Session) Len() int { return s.s.Len() }

// Dim returns the session's dimensionality (0 before the first append).
func (s *Session) Dim() int { return s.s.Dim() }

// CellsContext returns the number of occupied cells in the live base grid
// after folding any pending mutations; ctx cancels the fold.
func (s *Session) CellsContext(ctx context.Context) (int, error) {
	return s.s.CellsContext(ctx)
}

// Config returns the session's (validated) configuration.
func (s *Session) Config() Config { return s.s.Config() }

// ResidentBytes estimates the session's resident heap footprint (points,
// live grid, cell memo, cached result) without folding pending mutations —
// the input to a serving layer's memory-budgeted eviction policy.
func (s *Session) ResidentBytes() int64 { return s.s.ResidentBytes() }

// CheckpointContext serializes the session's full state — configuration
// fingerprint, point rows, memoized cell ids, quantizer frame and live
// grid — to w in a versioned, CRC-framed binary format. The write runs
// under the session's writer lock after folding any pending mutations, so a
// checkpoint is valid at any point in an append/remove sequence. Restore it
// with Clusterer.RestoreSession under the identical configuration; the
// restored session reproduces this one's labels bit for bit and stays warm
// for further mutations. ctx cancels the fold that precedes serialization;
// a cancelled call writes nothing.
func (s *Session) CheckpointContext(ctx context.Context, w io.Writer) error {
	return s.s.CheckpointContext(ctx, w)
}

// RestoreSession rebuilds a streaming session from a CheckpointContext
// stream, sharing this clusterer's engine and pooled buffers. A checkpoint
// taken under another configuration fails with ErrConfigMismatch.
func (c *Clusterer) RestoreSession(r io.Reader) (*Session, error) {
	s, err := core.RestoreSession(r, c.eng)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}
