package core

import (
	"context"
	"fmt"

	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// Out-of-core clustering: ClusterDatasetExternal is ClusterDatasetContext
// with the point-side memory decoupled from the dataset size. Its quantize
// stage runs the external sort (chunks quantized by the in-RAM shard
// kernel, sorted runs spilled to temp files, loser-tree merge into a packed
// grid — see grid.QuantizeDatasetExternalPackedCtx), unpacks that packed
// base once, and runStages carries the flat copy through the same
// transform → assign stages as every other path, so the labels are
// bit-identical to the in-RAM path for every
// chunk size and spill threshold. Pair it with a pointset.Mapped dataset
// and the float64 payload never touches the Go heap either: resident
// memory is the O(points) label/memo outputs plus the configured working
// budget plus the O(cells) grid, independent of how many points stream
// through.

// ExternalOptions tunes ClusterDatasetExternal. The zero value derives
// everything from DefaultMaxResidentBytes.
type ExternalOptions struct {
	// MaxResidentBytes is the target resident-heap budget for the run,
	// covering the per-point outputs (4-byte cell memo + 8-byte label per
	// point), the chunk working set, and the in-memory run budget of the
	// external sort. ≤ 0 selects DefaultMaxResidentBytes. A budget too
	// small to hold even the per-point outputs fails with an
	// ErrInvalidInput-tagged error. The O(cells) grid and its transforms
	// are not charged against the budget: cells are bounded by Scaleᵈ and
	// the occupancy of the data, not by the point count.
	MaxResidentBytes int64
	// ChunkPoints overrides the derived points-per-chunk (0 = derive from
	// the budget).
	ChunkPoints int
	// SpillBytes overrides the derived in-memory sorted-run budget
	// (0 = derive from the budget; 1 forces every run to disk).
	SpillBytes int64
	// TempDir is the base directory for spill files ("" uses the system
	// default). Spill files live in a fresh os.MkdirTemp directory removed
	// before the call returns, on every path — error and cancel included.
	TempDir string
}

// DefaultMaxResidentBytes is the resident-memory budget assumed when
// ExternalOptions does not set one: 512 MiB, enough to cluster tens of
// millions of points comfortably while fitting modest containers.
const DefaultMaxResidentBytes int64 = 512 << 20

// perPointOutputBytes is the per-point resident cost that no chunking can
// remove: the memoized int32 cell id and the int label of the Result.
const perPointOutputBytes = 4 + 8

// deriveExtSort turns a resident-memory budget into external-sort knobs:
// the per-point outputs are reserved first, then half the remainder funds
// the chunk working set and a quarter funds retained sorted runs — the
// rest is headroom for the merged grid and transform stages. The chunk
// working set is sized for the radix kernel (coordinates, index payload,
// and their scratch doubles: 2·(2d+4) bytes per point). A shard that takes
// the dense kernel instead holds one int32 per cell of a cell space no
// larger than its row count — at most 4 bytes per point, less than the
// radix buffers — so the derived chunk stays within budget either way.
func deriveExtSort(opts ExternalOptions, n, d int) (grid.ExtSortOptions, error) {
	budget := opts.MaxResidentBytes
	if budget <= 0 {
		budget = DefaultMaxResidentBytes
	}
	working := budget - int64(n)*perPointOutputBytes
	out := grid.ExtSortOptions{
		ChunkPoints: opts.ChunkPoints,
		SpillBytes:  opts.SpillBytes,
		TempDir:     opts.TempDir,
	}
	if out.ChunkPoints <= 0 || out.SpillBytes == 0 {
		if working <= 0 {
			return out, grid.InvalidInput(fmt.Errorf(
				"core: resident budget %d bytes cannot hold the %d-byte per-point outputs of %d points; raise ExternalOptions.MaxResidentBytes",
				budget, perPointOutputBytes, n))
		}
	}
	if out.ChunkPoints <= 0 {
		// Chunk working set ≈ points × (2·d coord bytes + 4 idx bytes,
		// doubled for the radix scratch buffers).
		perPoint := int64(2 * (2*d + 4))
		chunk := working / 2 / perPoint
		const minChunk, maxChunk = 1 << 14, 16 << 20
		if chunk < minChunk {
			chunk = minChunk
		}
		if chunk > maxChunk {
			chunk = maxChunk
		}
		out.ChunkPoints = int(chunk)
	}
	if out.SpillBytes == 0 {
		// Retained runs are block-compressed (PackedGrid, ~2–4 bytes per
		// cell instead of the flat 2·d+8), so the same quarter-budget now
		// holds roughly 4× the cells before the first spill.
		out.SpillBytes = working / 4
		if out.SpillBytes < 1 {
			out.SpillBytes = 1
		}
	}
	return out, nil
}

// ClusterDatasetExternal runs the out-of-core AdaWave pipeline on ds with
// resident memory bounded by opts. Labels, threshold, curve — the whole
// Result — are bit-identical to ClusterDatasetContext on the same rows.
// ds is typically a pointset.Mapped view (OpenMapped), but any Dataset
// works: only the quantization stage changes, everything downstream is the
// shared stage list.
func (e *Engine) ClusterDatasetExternal(ctx context.Context, ds *pointset.Dataset, opts ExternalOptions) (*Result, error) {
	if ds == nil || ds.N == 0 {
		return nil, grid.ErrNoPoints
	}
	// opts is cloned into the state: the embed stage may charge the
	// projected rows against the budget before the quantize stage derives
	// its chunk and spill sizes from what remains.
	st := &pipeState{cfg: e.cfg, w: e.effectiveWorkers(), ds: ds, ext: &opts}
	return e.runStages(ctx, st, stageList[stageFromTop:])
}
