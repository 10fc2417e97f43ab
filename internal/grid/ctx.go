package grid

import (
	"context"
	"errors"
	"fmt"
)

// Cooperative cancellation for the flat engine. Every parallel stage —
// bounding-box scan, sharded quantization, the cell merge kernel (shards,
// spill runs, a session's fold), slab-merge transform, connected
// components, assignment — takes a ctx and checks
// ctx.Err() at its shard boundaries (and, inside long single-shard loops,
// every ctxCheckStride iterations), unwinding without publishing partial
// results. A caller without a deadline passes context.Background(), whose
// Err is a constant nil — so the hot path pays one predictable-branch nil
// check per shard, nothing more.
//
// A cancelled stage never mutates its inputs (the transform, merge and
// component passes only read their input grids) and returns its pooled
// buffers, so a caller that sees ErrCanceled can simply retry.

// ErrCanceled tags computation abandoned because the caller's context was
// canceled (client disconnect, explicit CancelFunc). It wraps the original
// context error, so errors.Is matches both ErrCanceled and context.Canceled.
// Re-exported as the adawave facade's taxonomy root of the same name.
var ErrCanceled = errors.New("adawave: computation canceled")

// ErrDeadlineExceeded tags computation abandoned because the caller's
// context deadline expired. It wraps the original context error, so
// errors.Is matches both ErrDeadlineExceeded and context.DeadlineExceeded.
var ErrDeadlineExceeded = errors.New("adawave: deadline exceeded")

// ctxCheckStride is how many loop iterations a long single-shard loop runs
// between ctx.Err() polls: rare enough to vanish in the arithmetic, frequent
// enough to bound cancellation latency to microseconds.
const ctxCheckStride = 1 << 16

// CtxErr translates ctx's state into the exported taxonomy: nil while ctx is
// live, an ErrDeadlineExceeded-tagged error after its deadline, an
// ErrCanceled-tagged error after a cancel. The context's own error stays in
// the wrap chain.
func CtxErr(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}
