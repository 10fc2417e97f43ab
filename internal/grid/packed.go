package grid

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Compressed cell storage: PackedGrid is the block-compressed rendering of
// FlatGrid for grids at rest — a streaming session's live base grid, the
// external sort's runs and merged output, and snapshots. It is storage
// only: every clustering pass unpacks its base once (UnpackInto) and
// computes on the flat form.
// Cells are grouped into blocks of up to packedBlockCells cells; within a
// block every coordinate is frame-of-reference coded against the block's
// per-dimension minimum and bit-packed at the block's per-dimension width,
// and masses — integer point counts everywhere upstream of the wavelet
// transform — are bit-packed at the width of the block's largest count
// instead of spending a float64 each. A block whose masses are not small
// non-negative integers (fractional or ≥ 2³², which no quantization grid
// produces) stores raw float64s, so the encoding is lossless for any grid.
//
// The layout of one block payload (all integers little-endian):
//
//	base      d × uint16  per-dimension minimum coordinate
//	widths    d × uint8   bits per coordinate delta (0…16)
//	massMode  uint8       0 = bit-packed integer masses, 1 = raw float64
//	massWidth uint8       bits per mass when massMode == 0 (0…32)
//	count     uint16      cells in this block (1…packedBlockCells)
//	coords    ⌈count·Σwidths ⁄ 8⌉ bytes, cell-major, LSB-first
//	masses    ⌈count·massWidth ⁄ 8⌉ bytes, or count × 8 raw float64 bytes
//
// Sorted grids change slowly within a 4096-cell window, so the deltas pack
// to a few bits and a typical quantization grid costs ~2–4 bytes per cell
// against the flat 2·d+8 — the same resident budget holds 2–4× more cells.
// The same payload bytes are the unit of the AWG2 snapshot encoding, which
// both checkpoints and the external sort's spill runs use, so writing a
// packed grid to disk is a straight copy of its blocks.
//
// Cell order is the caller's, exactly like FlatGrid; every producer in this
// package emits canonical order, which the merge kernel relies on. The
// representation is positional: cell i of the packed grid corresponds to
// cell i of the equivalent FlatGrid, so memoized cell ids work unchanged.
const (
	packedBlockCells = 4096

	packedMassInts   = 0
	packedMassFloats = 1
)

// PackedGrid is a block-compressed sparse grid; see the package comment
// above for the encoding. The zero value is an empty grid with no
// dimensions; build one with PackFlat, a PackedBuilder, or the merge kernel
// (mergeCells, behind MergePackedFlatCtx, Compact and the external sort).
type PackedGrid struct {
	// Size is the number of cells along each dimension.
	Size []int

	n     int    // stored cells, tombstones included
	tombs int    // cells whose mass is ≤ 0 (signed-mass removal tombstones)
	data  []byte // concatenated block payloads
	off   []uint32
}

// Dim returns the dimensionality of the grid.
func (p *PackedGrid) Dim() int { return len(p.Size) }

// Len returns the number of stored cells (tombstones included), matching
// FlatGrid.Len on the equivalent grid.
func (p *PackedGrid) Len() int { return p.n }

// Bytes returns the resident footprint of the packed representation: the
// block payload bytes plus the block offset index. This is the quantity the
// external sort's spill budget and the session eviction manager account.
func (p *PackedGrid) Bytes() int64 {
	return int64(len(p.data)) + int64(len(p.off))*4 + int64(len(p.Size))*8
}

// blocks returns the number of sealed blocks.
func (p *PackedGrid) blocks() int {
	if len(p.off) == 0 {
		return 0
	}
	return len(p.off) - 1
}

// payload returns the raw payload bytes of block b.
func (p *PackedGrid) payload(b int) []byte { return p.data[p.off[b]:p.off[b+1]] }

// decodeBlockInto decodes block b into coords (count·d values) and masses
// (count values), which must be large enough, and returns the cell count.
// It trusts the payload — only this package writes blocks — so it performs
// no validation; file-facing readers go through decodePackedBlock instead.
func (p *PackedGrid) decodeBlockInto(b int, coords []uint16, masses []float64) int {
	d := len(p.Size)
	pl := p.payload(b)
	widths := pl[2*d : 3*d]
	mode := pl[3*d]
	mw := uint(pl[3*d+1])
	count := int(binary.LittleEndian.Uint16(pl[3*d+2:]))
	sumW := 0
	br := bitReader{b: pl[3*d+4:]}
	for j := 0; j < d; j++ {
		sumW += int(widths[j])
	}
	for i := 0; i < count; i++ {
		for j := 0; j < d; j++ {
			coords[i*d+j] = binary.LittleEndian.Uint16(pl[2*j:]) + uint16(br.read(uint(widths[j])))
		}
	}
	massOff := 3*d + 4 + (count*sumW+7)/8
	if mode == packedMassInts {
		mr := bitReader{b: pl[massOff:]}
		for i := 0; i < count; i++ {
			masses[i] = float64(mr.read(mw))
		}
	} else {
		for i := 0; i < count; i++ {
			masses[i] = math.Float64frombits(binary.LittleEndian.Uint64(pl[massOff+8*i:]))
		}
	}
	return count
}

// UnpackInto decodes the whole grid into dst (reusing its capacity) and
// returns dst — the promotion point where bit-packed integer masses become
// the float64 densities every stage of a clustering pass reads.
func (p *PackedGrid) UnpackInto(dst *FlatGrid) *FlatGrid {
	d := len(p.Size)
	dst.Size = append(dst.Size[:0], p.Size...)
	if cap(dst.Coords) < p.n*d {
		dst.Coords = make([]uint16, p.n*d)
	}
	dst.Coords = dst.Coords[:p.n*d]
	if cap(dst.Vals) < p.n {
		dst.Vals = make([]float64, p.n)
	}
	dst.Vals = dst.Vals[:p.n]
	lo := 0
	for b := 0; b < p.blocks(); b++ {
		lo += p.decodeBlockInto(b, dst.Coords[lo*d:], dst.Vals[lo:])
	}
	return dst
}

// Unpack decodes the whole grid into a fresh FlatGrid.
func (p *PackedGrid) Unpack() *FlatGrid {
	return p.UnpackInto(&FlatGrid{})
}

// TotalMass returns the sum of all cell masses.
func (p *PackedGrid) TotalMass() float64 {
	var s float64
	for c := packedCursor(p); !c.done; c.advance() {
		s += c.mass()
	}
	return s
}

// massSection locates the mass encoding of cell i: its block payload, the
// byte offset of the mass section, the in-block index, the mode and the
// integer width.
func (p *PackedGrid) massSection(i int) (pl []byte, massOff, j int, mode byte, mw uint) {
	d := len(p.Size)
	b := i / packedBlockCells
	j = i % packedBlockCells
	pl = p.payload(b)
	sumW := 0
	for _, w := range pl[2*d : 3*d] {
		sumW += int(w)
	}
	count := int(binary.LittleEndian.Uint16(pl[3*d+2:]))
	massOff = 3*d + 4 + (count*sumW+7)/8
	return pl, massOff, j, pl[3*d], uint(pl[3*d+1])
}

// DecMassAt subtracts one unit of mass from cell i in place and returns the
// new mass — the packed form of a streaming session's signed-mass removal
// (FlatGrid: Vals[i]--). Decrementing never widens a value, so the block's
// bit width stays valid; a cell already at zero mass stays at zero. A cell
// reaching mass ≤ 0 becomes a tombstone, swept by the next Compact or merge.
func (p *PackedGrid) DecMassAt(i int) float64 {
	pl, massOff, j, mode, mw := p.massSection(i)
	if mode == packedMassFloats {
		old := math.Float64frombits(binary.LittleEndian.Uint64(pl[massOff+8*j:]))
		nm := old - 1
		binary.LittleEndian.PutUint64(pl[massOff+8*j:], math.Float64bits(nm))
		if nm <= 0 && old > 0 {
			p.tombs++
		}
		return nm
	}
	u := getBits(pl[massOff:], uint64(j)*uint64(mw), mw)
	if u == 0 {
		return 0
	}
	u--
	putBits(pl[massOff:], uint64(j)*uint64(mw), mw, u)
	if u == 0 {
		p.tombs++
	}
	return float64(u)
}

// Compact returns the grid without its tombstone cells (mass ≤ 0) plus the
// remap: remap[i] is cell i's new index, or −1 if it was swept. It is
// mergeCells over the one grid. A grid holding no tombstones is returned
// unchanged with a nil remap.
func (p *PackedGrid) Compact() (*PackedGrid, []int32) {
	if p.tombs == 0 {
		return p, nil
	}
	bld := NewPackedBuilder(p.Size, p.n-p.tombs)
	// Neither the background context nor an in-memory source can fail.
	remap, _ := mergeCells(context.Background(), []*cellCursor{packedCursor(p)}, bld)
	return bld.Grid(), remap[0]
}

// PackFlat compresses f into the block representation, preserving cell
// order (cell i of the result is cell i of f).
func PackFlat(f *FlatGrid) *PackedGrid {
	d := f.Dim()
	bld := NewPackedBuilder(f.Size, f.Len())
	for i := 0; i < f.Len(); i++ {
		bld.Append(f.Coords[i*d:(i+1)*d], f.Vals[i])
	}
	return bld.Grid()
}

// AncestorLabelsCtx is FlatGrid.AncestorLabelsCtx with the packed grid as
// the base: each worker decodes its own block range and streams the shifted
// coordinates straight into the kept-grid lookups. Block boundaries are
// deterministic, so the result is identical for every worker count. The
// engine assigns from its flat unpacking of the base instead; this entry
// stays only because perfbench's stage replay (perfbench/replay.go)
// compiles against it.
func (p *PackedGrid) AncestorLabelsCtx(ctx context.Context, dst []int32, kept *FlatGrid, levels int, keptLabels []int32, workers int) ([]int32, error) {
	d := len(p.Size)
	m := p.n
	if cap(dst) < m {
		dst = make([]int32, m)
	}
	out := dst[:m]
	shift := uint(levels)
	buf := min(m, packedBlockCells)
	ParallelRangesCtx(ctx, p.blocks(), workers, func(_, blo, bhi int) {
		if ctx.Err() != nil {
			return
		}
		coords := make([]uint16, buf*d)
		masses := make([]float64, buf)
		cc := make([]uint16, d)
		for b := blo; b < bhi; b++ {
			if ctx.Err() != nil {
				return
			}
			count := p.decodeBlockInto(b, coords, masses)
			lo := b * packedBlockCells
			for i := 0; i < count; i++ {
				bc := coords[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					cc[j] = bc[j] >> shift
				}
				if k := kept.Find(cc); k >= 0 && keptLabels[k] >= 0 {
					out[lo+i] = keptLabels[k]
				} else {
					out[lo+i] = -1
				}
			}
		}
	})
	return out, CtxErr(ctx)
}

// PackedBuilder appends cells (in the caller's order) into a growing
// PackedGrid, sealing a block every packedBlockCells cells.
type PackedBuilder struct {
	g        *PackedGrid
	d        int
	coords   []uint16 // staging block, up to packedBlockCells·d
	masses   []float64
	min, max []uint16 // per-dimension frame scratch of seal
}

// NewPackedBuilder returns a builder for a grid with the given
// per-dimension sizes; expected (≥ 0) sizes the staging buffers for grids
// smaller than one block so tiny merges do not pay full-block scratch.
func NewPackedBuilder(size []int, expected int) *PackedBuilder {
	s := append([]int(nil), size...)
	d := len(s)
	buf := packedBlockCells
	if expected >= 0 && expected < buf {
		buf = expected
	}
	return &PackedBuilder{
		g:      &PackedGrid{Size: s, off: []uint32{0}},
		d:      d,
		coords: make([]uint16, 0, buf*d),
		masses: make([]float64, 0, buf),
		min:    make([]uint16, d),
		max:    make([]uint16, d),
	}
}

// Len returns the number of cells appended so far (sealed plus staged).
func (b *PackedBuilder) Len() int { return b.g.n + len(b.masses) }

// Append adds one cell. The caller keeps cells unique and ordered, exactly
// as with FlatGrid.Append.
func (b *PackedBuilder) Append(coords []uint16, mass float64) {
	if len(b.masses) == packedBlockCells {
		b.seal()
	}
	b.coords = append(b.coords, coords...)
	b.masses = append(b.masses, mass)
}

// LastCoords returns the coordinates of the most recently appended cell.
func (b *PackedBuilder) LastCoords() []uint16 {
	n := len(b.masses)
	return b.coords[(n-1)*b.d : n*b.d]
}

// Grid seals any staged cells and returns the built grid. The builder must
// not be used afterwards.
func (b *PackedBuilder) Grid() *PackedGrid {
	if len(b.masses) > 0 {
		b.seal()
	}
	return b.g
}

// seal encodes the staging block (see the format comment at the top of the
// file) and appends it to the grid.
func (b *PackedBuilder) seal() {
	count := len(b.masses)
	d := b.d
	for j := 0; j < d; j++ {
		b.min[j], b.max[j] = b.coords[j], b.coords[j]
	}
	for i := 1; i < count; i++ {
		for j := 0; j < d; j++ {
			c := b.coords[i*d+j]
			if c < b.min[j] {
				b.min[j] = c
			}
			if c > b.max[j] {
				b.max[j] = c
			}
		}
	}
	mode, mw := byte(packedMassInts), uint(0)
	for _, v := range b.masses {
		u := uint64(v)
		if !(v >= 0 && float64(u) == v && u < 1<<32) {
			mode, mw = packedMassFloats, 0
			break
		}
		if w := uint(bits.Len64(u)); w > mw {
			mw = w
		}
	}
	g := b.g
	data := g.data
	for j := 0; j < d; j++ {
		data = append(data, byte(b.min[j]), byte(b.min[j]>>8))
	}
	widthsOff := len(data)
	for j := 0; j < d; j++ {
		data = append(data, byte(bits.Len16(b.max[j]-b.min[j])))
	}
	data = append(data, mode, byte(mw), byte(count), byte(count>>8))
	bw := bitWriter{out: data}
	for i := 0; i < count; i++ {
		for j := 0; j < d; j++ {
			bw.write(uint64(b.coords[i*d+j]-b.min[j]), uint(data[widthsOff+j]))
		}
	}
	bw.flushByte()
	data = bw.out
	if mode == packedMassInts {
		bw = bitWriter{out: data}
		for _, v := range b.masses {
			bw.write(uint64(v), mw)
		}
		bw.flushByte()
		data = bw.out
	} else {
		var raw [8]byte
		for _, v := range b.masses {
			binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
			data = append(data, raw[:]...)
		}
	}
	for _, v := range b.masses {
		if v <= 0 {
			g.tombs++
		}
	}
	g.data = data
	g.n += count
	g.off = append(g.off, uint32(len(data)))
	b.coords = b.coords[:0]
	b.masses = b.masses[:0]
}

// MergePackedFlatCtx folds a streaming session's delta into its packed
// live grid: mergeCells over the live blocks and the flat delta, re-packed
// as it is emitted, so the fold never materializes the uncompressed union.
// Equal cells sum live before delta; a cell whose merged mass is ≤ 0 (a
// removal tombstone, or one cancelled by a negative delta) is dropped with
// a −1 remap entry. The live grid is never modified, so a cancelled merge
// leaves the session state untouched.
func MergePackedFlatCtx(ctx context.Context, live *PackedGrid, delta *FlatGrid) (merged *PackedGrid, liveRemap, deltaRemap []int32, err error) {
	bld := NewPackedBuilder(live.Size, live.Len()+delta.Len())
	remap, err := mergeCells(ctx, []*cellCursor{packedCursor(live), flatCursor(delta)}, bld)
	if err != nil {
		return nil, nil, nil, err
	}
	return bld.Grid(), remap[0], remap[1], nil
}

// --- bit-level plumbing ---------------------------------------------------

// bitWriter appends LSB-first bit fields to a byte slice. Values are at
// most 32 bits wide, so the accumulator never overflows (n < 8 between
// writes).
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) write(v uint64, bitCount uint) {
	if bitCount == 0 {
		return
	}
	w.acc |= v << w.n
	w.n += bitCount
	for w.n >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

// flushByte pads the pending bits to a byte boundary.
func (w *bitWriter) flushByte() {
	if w.n > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc, w.n = 0, 0
	}
}

// bitReader consumes LSB-first bit fields from a byte slice. Fields are at
// most 32 bits wide; the invariant n < 8 between reads bounds the
// accumulator exactly like bitWriter's.
type bitReader struct {
	b   []byte
	pos int
	acc uint64
	n   uint
}

func (r *bitReader) read(bitCount uint) uint64 {
	if bitCount == 0 {
		return 0
	}
	for r.n < bitCount {
		r.acc |= uint64(r.b[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	v := r.acc & (1<<bitCount - 1)
	r.acc >>= bitCount
	r.n -= bitCount
	return v
}

// getBits reads a bit field at an arbitrary bit offset (random access; the
// sequential decoders use bitReader).
func getBits(b []byte, off uint64, bitCount uint) uint64 {
	if bitCount == 0 {
		return 0
	}
	byteOff := int(off >> 3)
	shift := uint(off & 7)
	nb := int((shift + bitCount + 7) / 8)
	var v uint64
	for i := 0; i < nb; i++ {
		v |= uint64(b[byteOff+i]) << (8 * uint(i))
	}
	return (v >> shift) & (1<<bitCount - 1)
}

// putBits writes a bit field at an arbitrary bit offset, preserving the
// neighboring bits.
func putBits(b []byte, off uint64, bitCount uint, v uint64) {
	if bitCount == 0 {
		return
	}
	byteOff := int(off >> 3)
	shift := uint(off & 7)
	nb := int((shift + bitCount + 7) / 8)
	var cur uint64
	for i := 0; i < nb; i++ {
		cur |= uint64(b[byteOff+i]) << (8 * uint(i))
	}
	mask := (uint64(1)<<bitCount - 1) << shift
	cur = (cur &^ mask) | (v << shift)
	for i := 0; i < nb; i++ {
		b[byteOff+i] = byte(cur >> (8 * uint(i)))
	}
}

// decodePackedBlock validates and decodes one block payload read from an
// untrusted source (an AWG2 stream: a snapshot or a spill run) into coords
// and masses, which must hold packedBlockCells·d and packedBlockCells values —
// the decode is bounded by the block size no matter what the stream claims.
// It returns the cell count or a descriptive error; it never panics.
func decodePackedBlock(payload []byte, d int, coords []uint16, masses []float64) (int, error) {
	hdr := 3*d + 4
	if len(payload) < hdr {
		return 0, fmt.Errorf("block payload of %d bytes shorter than its %d-byte header", len(payload), hdr)
	}
	widths := payload[2*d : 3*d]
	sumW := 0
	for j, w := range widths {
		if w > 16 {
			return 0, fmt.Errorf("coordinate width %d of dimension %d exceeds 16 bits", w, j)
		}
		sumW += int(w)
	}
	mode := payload[3*d]
	mw := uint(payload[3*d+1])
	if mode != packedMassInts && mode != packedMassFloats {
		return 0, fmt.Errorf("unknown mass mode %d", mode)
	}
	if mode == packedMassInts && mw > 32 {
		return 0, fmt.Errorf("mass width %d exceeds 32 bits", mw)
	}
	count := int(binary.LittleEndian.Uint16(payload[3*d+2:]))
	if count == 0 || count > packedBlockCells {
		return 0, fmt.Errorf("block cell count %d out of range [1,%d]", count, packedBlockCells)
	}
	if count*d > len(coords) || count > len(masses) {
		return 0, fmt.Errorf("block cell count %d exceeds the stream's declared size", count)
	}
	coordBytes := (count*sumW + 7) / 8
	massBytes := count * 8
	if mode == packedMassInts {
		massBytes = (count*int(mw) + 7) / 8
	}
	if len(payload) != hdr+coordBytes+massBytes {
		return 0, fmt.Errorf("block payload of %d bytes, want %d for %d cells", len(payload), hdr+coordBytes+massBytes, count)
	}
	br := bitReader{b: payload[hdr:]}
	for i := 0; i < count; i++ {
		for j := 0; j < d; j++ {
			base := int(binary.LittleEndian.Uint16(payload[2*j:]))
			c := base + int(br.read(uint(widths[j])))
			if c > 0xFFFF {
				return 0, fmt.Errorf("cell %d coordinate %d overflows uint16 in dimension %d", i, c, j)
			}
			coords[i*d+j] = uint16(c)
		}
	}
	massOff := hdr + coordBytes
	if mode == packedMassInts {
		mr := bitReader{b: payload[massOff:]}
		for i := 0; i < count; i++ {
			masses[i] = float64(mr.read(mw))
		}
	} else {
		for i := 0; i < count; i++ {
			masses[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[massOff+8*i:]))
		}
	}
	return count, nil
}

// maxPackedPayload bounds a d-dimensional block payload: header plus
// full-width coordinates plus raw float64 masses. Readers use it to reject
// an adversarial length prefix before allocating or reading anything.
func maxPackedPayload(d int) int {
	return 3*d + 4 + (packedBlockCells*16*d+7)/8 + packedBlockCells*8
}
