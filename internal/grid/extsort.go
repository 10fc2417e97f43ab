package grid

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"adawave/internal/pointset"
)

// External sort: the out-of-core rendering of QuantizeDatasetCtx. When the
// count tables of a dense call fit within one chunk's rows (denseCall over
// min(ChunkPoints, n) rows), there is nothing to sort: the call is the
// in-RAM dense route, quantizeDenseDataset, over the whole dataset — one
// table per worker over all Scaleᵈ cells, their sum ranked once, the ids
// renumbered in one pass — and it makes no chunk, run or spill directory.
// The tables hold at most 4 bytes per chunk row, less than the radix
// working set a chunk is budgeted for, and the rows are read once.
//
// Otherwise the in-RAM plan (shard the points, radix-sort each shard with
// quantizeShard, k-way merge) is cut into fixed-size point chunks: each
// chunk's shards run the same quantizeShard kernel, but every resulting
// sorted run is block-compressed (PackedGrid) and either retained in
// memory (small) or spilled to a temp file (large), and the package's one
// k-way merge, mergeCells, reads all runs back through cell cursors,
// emitting cells in canonical order while renumbering every point's
// memoized chunk-local cell id to its canonical-grid index. Cell masses are
// integer point counts, so the sums are exact in any order and the
// resulting grid, ids, and every label derived from them are bit-identical
// to QuantizeDatasetCtx on either route — only the peak resident memory
// changes: O(chunk + retained runs + cells) instead of O(points).
//
// A mapped file records its bounding box, so its quantizer is built
// without a scan (NewQuantizerDatasetCtx) and each route reads every row
// once: the dense count and the chunks' radix kernel check the recorded
// bounds in the same pass (boxCheck), and a call whose rows contradict
// them fails, on the radix route before any merge, with no grid.

// ExtSortOptions tunes the external sort. The zero value selects defaults
// suitable for a machine with a few GB to spare; core.ExternalOptions
// derives these knobs from a single resident-memory budget.
type ExtSortOptions struct {
	// ChunkPoints is the number of points quantized and sorted per chunk
	// (the unit of in-memory work). A grid whose dense count tables fit
	// within one chunk's rows is counted in one pass without chunks. ≤ 0
	// selects 1<<20.
	ChunkPoints int
	// SpillBytes bounds the total bytes of sorted runs retained in memory:
	// once retained runs exceed it, further runs spill to disk. Runs are
	// block-compressed, so the budget is measured against packed bytes
	// (typically 2–4 per cell rather than the flat 2·d+8). ≤ 0 selects
	// 256 MiB; 1 forces every run to spill (useful in tests).
	SpillBytes int64
	// TempDir is the base directory for the spill directory ("" uses the
	// system default). Spill files live in a fresh os.MkdirTemp directory
	// that is removed — error and cancellation paths included — before
	// QuantizeDatasetExternalPackedCtx returns. A dense call creates none.
	TempDir string
}

// defaults for ExtSortOptions zero fields.
const (
	defaultChunkPoints = 1 << 20
	defaultSpillBytes  = 256 << 20
)

// extRun is one sorted, deduped cell run: the quantization of a contiguous
// point range, in canonical cell order. It is block-compressed either way:
// retained in memory (p != nil) or spilled to a temp file (path != "").
type extRun struct {
	lo, hi int // the point range whose memoized ids are local to this run
	cells  int
	p      *PackedGrid
	path   string
}

// gridSize returns the per-dimension cell counts of q's grid.
func (q *Quantizer) gridSize() []int {
	size := make([]int, q.Dim())
	for j := range size {
		size[j] = q.Scale
	}
	return size
}

// QuantizeDatasetExternalPackedCtx builds the same canonical density grid
// and point→cell memo as QuantizeDatasetCtx — bit-identical cells, masses
// and ids for every chunk size, spill threshold and worker count — while
// keeping resident memory bounded by the chunk size plus the spill budget
// plus the final grid, independent of the dataset size. A dense call counts
// the rows straight into per-worker tables no larger than a chunk's rows
// and packs the ranked grid. Otherwise points stream through in chunks (an
// mmap-backed Dataset is paged in and dropped by the OS), each chunk's
// sorted run spills to disk once the in-memory run budget is exhausted,
// and mergeCells re-reads the runs sequentially and streams straight into
// a PackedBuilder, so the external sort never materializes the
// uncompressed cell array. Cancellation is polled at chunk boundaries,
// every ctxCheckStride points within a chunk or a dense pass and every
// ctxCheckStride merged cells; a cancelled call removes its spill
// directory before returning.
func (q *Quantizer) QuantizeDatasetExternalPackedCtx(ctx context.Context, ds *pointset.Dataset, workers int, opts ExtSortOptions) (*PackedGrid, []int32, error) {
	d := q.Dim()
	size := q.gridSize()
	n := ds.N
	if n == 0 {
		return NewPackedBuilder(size, -1).Grid(), nil, nil
	}
	chunkPts := opts.ChunkPoints
	if chunkPts <= 0 {
		chunkPts = defaultChunkPoints
	}
	// A dense call sorts nothing: it is the in-RAM dense route.
	dw := quantizeWorkers(n, workers)
	if cells, ok := denseCall(q.Scale, d, n, dw, min(chunkPts, n)); ok {
		f, ids, err := q.quantizeDenseDataset(ctx, ds, make([]int32, n), cells, size, dw)
		if err != nil {
			return nil, nil, err
		}
		return PackFlat(f), ids, nil
	}
	spillBytes := opts.SpillBytes
	if spillBytes <= 0 {
		spillBytes = defaultSpillBytes
	}
	if workers < 1 {
		workers = 1
	}

	ids := make([]int32, n)
	var (
		runs    []extRun
		memUsed int64
		tmpDir  string
	)
	defer func() {
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
	}()

	// Phase 1: chunked quantize. Each chunk is sharded across the workers
	// exactly like QuantizeDatasetCtx shards a dataset it does not count
	// densely, and every shard runs the same quantizeShard kernel, yielding
	// one sorted run with shard-local cell ids stamped on its points.
	shardGrids := make([]*FlatGrid, workers)
	checks := q.newBoxChecks(workers)
	shardLo := make([]int, workers)
	shardHi := make([]int, workers)
	for lo := 0; lo < n; lo += chunkPts {
		hi := lo + chunkPts
		if hi > n {
			hi = n
		}
		if err := CtxErr(ctx); err != nil {
			return nil, nil, err
		}
		nn := hi - lo
		w := quantizeWorkers(nn, workers)
		for i := range shardGrids {
			shardGrids[i] = nil
		}
		ParallelRangesCtx(ctx, nn, w, func(sw, slo, shi int) {
			if ctx.Err() != nil {
				return
			}
			slo, shi = lo+slo, lo+shi
			shardGrids[sw] = q.quantizeShard(ctx, ds.Data[slo*d:shi*d], slo, ids[slo:shi], size, checks.shard(sw))
			shardLo[sw], shardHi[sw] = slo, shi
		})
		if err := CtxErr(ctx); err != nil {
			return nil, nil, err
		}
		// Pack, then retain or spill each shard's run, in shard order so the
		// decision (and the run sequence the merge sees) is deterministic.
		// Packing drops the chunk-sized shard buffers either way, so a
		// retained run pins only its compressed cells.
		for sw, g := range shardGrids {
			if g == nil {
				continue
			}
			run := extRun{lo: shardLo[sw], hi: shardHi[sw], cells: g.Len()}
			pg := PackFlat(g)
			if b := pg.Bytes(); memUsed+b <= spillBytes {
				run.p = pg
				memUsed += b
			} else {
				if tmpDir == "" {
					var err error
					tmpDir, err = os.MkdirTemp(opts.TempDir, "adawave-extsort-")
					if err != nil {
						return nil, nil, fmt.Errorf("grid: external sort spill dir: %w", err)
					}
				}
				path := filepath.Join(tmpDir, fmt.Sprintf("run-%06d.spill", len(runs)))
				f, err := os.Create(path)
				if err != nil {
					return nil, nil, fmt.Errorf("grid: external sort spill: %w", err)
				}
				err = pg.WriteSnapshot(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return nil, nil, fmt.Errorf("grid: external sort spill %s: %w", filepath.Base(path), err)
				}
				run.path = path
			}
			runs = append(runs, run)
		}
	}

	if err := checks.verify(ctx, q, ds, workers); err != nil {
		return nil, nil, err
	}

	// Phase 2: k-way merge over all runs, emitting canonical order and
	// recording, per run, where each run-local cell landed in the merged
	// grid. Spilled runs stream back block by block; nothing beyond the
	// builder and the remap tables is materialized.
	bld := NewPackedBuilder(size, -1)
	srcs := make([]*cellCursor, 0, len(runs))
	defer func() {
		for _, c := range srcs {
			c.close()
		}
	}()
	for i := range runs {
		c, err := runs[i].cursor(d)
		if err != nil {
			return nil, nil, err
		}
		srcs = append(srcs, c)
	}
	remap, err := mergeCells(ctx, srcs, bld)
	if err != nil {
		return nil, nil, err
	}

	// Phase 3: renumber the memoized point ids from run-local to canonical
	// grid indices, one parallel pass per run's point range.
	for r := range runs {
		rm := remap[r]
		lo, hi := runs[r].lo, runs[r].hi
		ParallelRangesCtx(ctx, hi-lo, workers, func(_, slo, shi int) {
			for i := lo + slo; i < lo+shi; i++ {
				ids[i] = rm[ids[i]]
			}
		})
	}
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	return bld.Grid(), ids, nil
}

// QuantizeDatasetExternalCtx is QuantizeDatasetExternalPackedCtx with the
// merged grid unpacked to flat form. It is kept only for perfbench's stage
// replay (perfbench/replay.go), which compiles against it.
func (q *Quantizer) QuantizeDatasetExternalCtx(ctx context.Context, ds *pointset.Dataset, workers int, opts ExtSortOptions) (*FlatGrid, []int32, error) {
	p, ids, err := q.QuantizeDatasetExternalPackedCtx(ctx, ds, workers, opts)
	if err != nil {
		return nil, nil, err
	}
	return p.Unpack(), ids, nil
}

// ErrCorruptSpillRun reports a spill file whose bytes do not decode as the
// AWG2 stream the spill wrote — truncation, a header that does not match
// the run, a bad length prefix, or a malformed block. Every decode failure
// wraps it, and decoding never panics or allocates beyond the fixed
// per-block buffers however corrupt the input.
var ErrCorruptSpillRun = errors.New("grid: corrupt spill run")

// cursor returns a cursor on the run's first cell, reading a spilled run
// back from its file.
func (r *extRun) cursor(d int) (*cellCursor, error) {
	if r.p != nil {
		return packedCursor(r.p), nil
	}
	return openSpillCursor(r.path, d, r.cells)
}

// openSpillCursor opens the spill run at path, an AWG2 stream of cells
// d-dimensional cells, and positions a cursor on its first cell. The
// window is the block reader's own one-block buffers. A header that does
// not match the run is ErrCorruptSpillRun.
func openSpillCursor(path string, d, cells int) (*cellCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("grid: external sort merge: %w", err)
	}
	br := bufio.NewReaderSize(f, 256<<10)
	h, err := readSnapshotHeader(br)
	if err == nil && (!h.v2 || len(h.size) != d || h.cells != uint64(cells)) {
		err = fmt.Errorf("AWG2 stream of %d cells in %d dimensions expected", cells, d)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("grid: external sort merge %s: %w: %v", filepath.Base(path), ErrCorruptSpillRun, err)
	}
	blocks := newBlockReader(br, d, h.cells)
	c := &cellCursor{d: d, n: cells, idx: -1, coords: blocks.coords, masses: blocks.masses, pos: -1, blocks: blocks, f: f}
	if err := c.advance(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}
