package grid

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"adawave/internal/pointset"
)

// External sort: the out-of-core rendering of QuantizeDatasetCtx. The
// in-RAM path shards the points, turns each shard into a sorted per-shard
// accumulator with quantizeShard (a dense count when the cell space Scaleᵈ
// is no larger than the shard's rows, a radix sort with the point index as
// payload otherwise), and k-way merges — every intermediate lives in memory
// at once. Out of core, the same plan is cut into fixed-size point chunks:
// each chunk's shards run the same quantizeShard kernel, but every
// resulting sorted run is block-compressed (PackedGrid) and either
// retained in memory (small) or spilled to a temp file (large), and a
// loser-tree k-way merge over all runs emits cells in canonical order
// while renumbering every point's memoized chunk-local cell id to its
// canonical-grid index. Cell masses are integer point counts, so the merge
// sums are exact in any order and the resulting grid, ids, and every label
// derived from them are bit-identical to QuantizeDatasetCtx — only the
// peak resident memory changes: O(chunk + retained runs + cells) instead
// of O(points), and the packed runs hold ~4× the cells of the former flat
// runs in the same spill budget.

// ExtSortOptions tunes the external sort. The zero value selects defaults
// suitable for a machine with a few GB to spare; core.ExternalOptions
// derives these knobs from a single resident-memory budget.
type ExtSortOptions struct {
	// ChunkPoints is the number of points quantized and sorted per chunk
	// (the unit of in-memory work). ≤ 0 selects 1<<20.
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
	// QuantizeDatasetExternalPackedCtx returns.
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
// plus the final grid, independent of the dataset size. Points stream
// through in chunks (an mmap-backed Dataset is paged in and dropped by the
// OS), each chunk's sorted run spills to disk once the in-memory run budget
// is exhausted, and a loser-tree merge re-reads the runs sequentially and
// streams straight into a PackedBuilder, so the uncompressed cell array
// never materializes at any point of the external pipeline. Cancellation
// is polled at chunk and merge boundaries and every ctxCheckStride points
// within; a cancelled call removes its spill directory before returning.
func (q *Quantizer) QuantizeDatasetExternalPackedCtx(ctx context.Context, ds *pointset.Dataset, workers int, opts ExtSortOptions) (*PackedGrid, []int32, error) {
	d := q.Dim()
	size := q.gridSize()
	n := ds.N
	bld := NewPackedBuilder(size, -1)
	if n == 0 {
		return bld.Grid(), nil, nil
	}
	chunkPts := opts.ChunkPoints
	if chunkPts <= 0 {
		chunkPts = defaultChunkPoints
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
	// exactly like QuantizeDatasetCtx shards the whole dataset, and every
	// shard runs the same quantizeShard kernel, yielding one sorted run
	// with shard-local cell ids stamped on its points.
	shardGrids := make([]*FlatGrid, workers)
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
		w := workers
		if nn < parallelCellCutoff {
			w = 1
		}
		for i := range shardGrids {
			shardGrids[i] = nil
		}
		ParallelRangesCtx(ctx, nn, w, func(sw, slo, shi int) {
			if ctx.Err() != nil {
				return
			}
			slo, shi = lo+slo, lo+shi
			shardGrids[sw] = q.quantizeShard(ctx, ds.Data[slo*d:shi*d], ids[slo:shi], size)
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
				if err := writeSpillRun(path, pg); err != nil {
					return nil, nil, err
				}
				run.path = path
			}
			runs = append(runs, run)
		}
	}

	// Phase 2: loser-tree k-way merge over all runs, emitting canonical
	// order and recording, per run, where each run-local cell landed in
	// the merged grid.
	remap, err := mergeExtRuns(ctx, runs, d, bld)
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

// mergeExtRuns k-way merges sorted runs into bld, summing duplicate cells
// in run order (exact: masses are integer point counts) and filling
// remap[r][j] = merged index of run r's j-th cell. Spilled runs are
// streamed back block by block through buffered readers; nothing beyond
// the builder and the remap tables is materialized.
func mergeExtRuns(ctx context.Context, runs []extRun, d int, bld *PackedBuilder) ([][]int32, error) {
	remap := make([][]int32, len(runs))
	streams := make([]*runStream, len(runs))
	defer func() {
		for _, st := range streams {
			if st != nil {
				st.close()
			}
		}
	}()
	for i := range runs {
		remap[i] = make([]int32, runs[i].cells)
		st, err := openRunStream(&runs[i], d)
		if err != nil {
			return nil, err
		}
		streams[i] = st
	}
	if len(streams) == 0 {
		return remap, nil
	}
	lt := newLoserTree(streams)
	emitted := 0
	for {
		s := lt.winner()
		if s < 0 {
			break
		}
		if emitted%ctxCheckStride == ctxCheckStride-1 {
			if err := CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		st := streams[s]
		m := bld.Len()
		if m > 0 && cmpCoords(bld.LastCoords(), st.cur) == 0 {
			bld.AddLast(st.curMass)
			remap[s][st.emitted] = int32(m - 1)
		} else {
			bld.Append(st.cur, st.curMass)
			remap[s][st.emitted] = int32(m)
		}
		st.emitted++
		emitted++
		if err := st.advance(); err != nil {
			return nil, err
		}
		lt.fix(s)
	}
	return remap, nil
}

// --- spill encoding (format v2) -------------------------------------------
//
// A spill file is one sorted run as a sequence of the same block payloads
// PackedGrid holds in memory (frame-of-reference delta-coded bit-packed
// coordinates, bit-packed integer masses; see packed.go for the layout):
//
//	uvarint cellCount
//	per block: uvarint payloadLen, then payloadLen payload bytes
//
// Spilling a packed run is therefore a straight copy of its block payloads
// — no re-encode — and reading one back is the block decoder shared with
// the in-memory representation: fixed-width branch-free unpacking instead
// of format v1's per-value varint loop, at ~2–4 bytes per cell either way.

// ErrCorruptSpillRun reports a spill file whose bytes do not decode as the
// packed run format — truncation, a bad length prefix, or a malformed
// block. Every decode failure wraps it, and decoding never panics or
// allocates beyond the fixed per-block buffers however corrupt the input.
var ErrCorruptSpillRun = errors.New("grid: corrupt spill run")

// writeSpillRun writes p (a sorted run) into a new spill file.
func writeSpillRun(path string, p *PackedGrid) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("grid: external sort spill: %w", err)
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	var buf [binary.MaxVarintLen64]byte
	put := func(b []byte) error { _, err := bw.Write(b); return err }

	werr := put(buf[:binary.PutUvarint(buf[:], uint64(p.Len()))])
	for b := 0; b < p.blocks() && werr == nil; b++ {
		pl := p.payload(b)
		if werr = put(buf[:binary.PutUvarint(buf[:], uint64(len(pl)))]); werr == nil {
			werr = put(pl)
		}
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("grid: external sort spill %s: %w", filepath.Base(path), werr)
	}
	return nil
}

// runStream yields one run's cells in order, decoding one block at a time
// from either the retained packed grid or its spill file.
type runStream struct {
	d       int
	cur     []uint16 // current cell coordinates (view into blkCoords)
	curMass float64
	emitted int32 // cells already handed to the merge (run-local index)

	// decoded block window, shared by both sources
	blkCoords []uint16
	blkMasses []float64
	count     int // cells in the window
	pos       int // next cell within the window

	// retained source
	p    *PackedGrid
	next int // next block to decode

	// spilled source
	f         *os.File
	br        *bufio.Reader
	remaining int
	payload   []byte

	done bool
}

// openRunStream opens a cursor over run and positions it on the first cell.
func openRunStream(run *extRun, d int) (*runStream, error) {
	buf := run.cells
	if buf < 0 {
		buf = 0
	}
	if buf > packedBlockCells {
		buf = packedBlockCells
	}
	st := &runStream{
		d:         d,
		blkCoords: make([]uint16, buf*d),
		blkMasses: make([]float64, buf),
	}
	if run.p != nil {
		st.p = run.p
	} else {
		f, err := os.Open(run.path)
		if err != nil {
			return nil, fmt.Errorf("grid: external sort merge: %w", err)
		}
		st.f = f
		st.br = bufio.NewReaderSize(f, 256<<10)
		m, err := binary.ReadUvarint(st.br)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("grid: external sort merge %s: %w: cell count: %v", filepath.Base(run.path), ErrCorruptSpillRun, err)
		}
		if m > uint64(math.MaxInt32) || int(m) != run.cells {
			st.close()
			return nil, fmt.Errorf("grid: external sort merge %s: %w: %d cells on disk, expected %d", filepath.Base(run.path), ErrCorruptSpillRun, m, run.cells)
		}
		st.remaining = int(m)
	}
	if err := st.advance(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// advance moves the cursor to the next cell, decoding the next block when
// the window is exhausted; after the last cell the stream reports done and
// loses to every live stream in the tree.
func (st *runStream) advance() error {
	if st.pos >= st.count {
		if err := st.nextBlock(); err != nil || st.done {
			return err
		}
	}
	st.cur = st.blkCoords[st.pos*st.d : (st.pos+1)*st.d]
	st.curMass = st.blkMasses[st.pos]
	st.pos++
	return nil
}

// nextBlock refills the decode window from the stream's source.
func (st *runStream) nextBlock() error {
	st.pos, st.count = 0, 0
	if st.p != nil {
		if st.next >= st.p.blocks() {
			st.done = true
			return nil
		}
		st.count = st.p.decodeBlockInto(st.next, st.blkCoords, st.blkMasses)
		st.next++
		return nil
	}
	if st.remaining == 0 {
		st.done = true
		return nil
	}
	plen, err := binary.ReadUvarint(st.br)
	if err != nil {
		return fmt.Errorf("grid: external sort merge: %w: block length: %v", ErrCorruptSpillRun, err)
	}
	if plen == 0 || plen > uint64(maxPackedPayload(st.d)) {
		return fmt.Errorf("grid: external sort merge: %w: block length %d out of range", ErrCorruptSpillRun, plen)
	}
	if cap(st.payload) < int(plen) {
		st.payload = make([]byte, plen)
	}
	st.payload = st.payload[:plen]
	if _, err := readFull(st.br, st.payload); err != nil {
		return fmt.Errorf("grid: external sort merge: %w: truncated block: %v", ErrCorruptSpillRun, err)
	}
	count, err := decodePackedBlock(st.payload, st.d, st.blkCoords, st.blkMasses)
	if err != nil {
		return fmt.Errorf("grid: external sort merge: %w: %v", ErrCorruptSpillRun, err)
	}
	if count > st.remaining {
		return fmt.Errorf("grid: external sort merge: %w: block of %d cells exceeds remaining %d", ErrCorruptSpillRun, count, st.remaining)
	}
	st.remaining -= count
	st.count = count
	return nil
}

// readFull is io.ReadFull without the io import dance for a bufio.Reader.
func readFull(br *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// close releases the stream's file handle, if any.
func (st *runStream) close() {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
}

// --- loser tree -----------------------------------------------------------

// loserTree is a k-way tournament tree over run streams: winner() is O(1),
// fix(s) after advancing stream s replays only s's log₂(k) matches. Ties on
// equal cells go to the lower run index, so duplicate cells are summed in
// run (= point) order, matching mergeShards' shard order.
type loserTree struct {
	k       int
	tree    []int32 // tree[0] = overall winner; tree[1:] = match losers
	streams []*runStream
}

func newLoserTree(streams []*runStream) *loserTree {
	k := len(streams)
	lt := &loserTree{k: k, streams: streams, tree: make([]int32, k)}
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for s := k - 1; s >= 0; s-- {
		lt.seed(int32(s))
	}
	return lt
}

// beats reports whether stream a wins against stream b (smaller cell, run
// index breaking ties; an exhausted stream loses to every live one).
func (lt *loserTree) beats(a, b int32) bool {
	sa, sb := lt.streams[a], lt.streams[b]
	if sa.done {
		return false
	}
	if sb.done {
		return true
	}
	c := cmpCoords(sa.cur, sb.cur)
	return c < 0 || (c == 0 && a < b)
}

// seed plays stream s up the tree during construction: the first arrival at
// an empty match waits there as the provisional loser.
func (lt *loserTree) seed(s int32) {
	winner := s
	for t := (int(s) + lt.k) / 2; t > 0; t /= 2 {
		if lt.tree[t] < 0 {
			lt.tree[t] = winner
			return
		}
		if lt.beats(lt.tree[t], winner) {
			winner, lt.tree[t] = lt.tree[t], winner
		}
	}
	lt.tree[0] = winner
}

// fix replays stream s's matches after its head advanced.
func (lt *loserTree) fix(s int32) {
	winner := s
	for t := (int(s) + lt.k) / 2; t > 0; t /= 2 {
		if lt.beats(lt.tree[t], winner) {
			winner, lt.tree[t] = lt.tree[t], winner
		}
	}
	lt.tree[0] = winner
}

// winner returns the stream index holding the smallest head cell, or −1
// when every stream is exhausted.
func (lt *loserTree) winner() int32 {
	w := lt.tree[0]
	if w < 0 || lt.streams[w].done {
		return -1
	}
	return w
}
