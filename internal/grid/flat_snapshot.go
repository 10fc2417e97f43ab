package grid

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Grid snapshots: a packed grid serializes to a compact little-endian
// binary stream so a long-lived session can checkpoint its live base grid
// (and a restarted process can warm-start from it) without replaying every
// point. The format is versioned by a 4-byte magic; all integers are
// little-endian. ReadSnapshot restores either version into a *PackedGrid:
//
//	"AWG1" | dim uint32 | size[dim] uint32 | cells uint64
//	     | coords[cells*dim] uint16 | vals[cells] float64
//
//	"AWG2" | dim uint32 | size[dim] uint32 | cells uint64
//	     | per block: payloadLen uint32, then the packed block payload
//	       (see packed.go for the block layout)
//
// AWG2 is what PackedGrid.WriteSnapshot emits — the payload bytes are the
// in-memory blocks verbatim, so checkpointing a session grid is a copy. The
// external sort's spill runs are AWG2 streams too, read back through the
// same blockReader as a snapshot body.
// AWG1, the flat struct-of-arrays encoding, is read-only: nothing writes it
// any more, but checkpoints taken before the flat writer was retired still
// restore, through the same validation.

var snapshotMagic = [4]byte{'A', 'W', 'G', '1'}
var snapshotMagic2 = [4]byte{'A', 'W', 'G', '2'}

// ErrUnserializableGrid is returned by WriteSnapshot for a grid holding a
// non-finite cell mass: such a grid is corrupt, and no byte stream restored
// by ReadSnapshot could represent it.
var ErrUnserializableGrid = errors.New("grid: non-finite cell mass cannot be snapshotted")

// ReadSnapshot restores a grid written by PackedGrid.WriteSnapshot (AWG2)
// or by the retired flat writer (AWG1), validating the magic, the
// coordinate ranges against the recorded sizes, mass finiteness and
// canonical cell order, so a truncated or corrupted stream is reported
// instead of yielding a quietly broken grid.
func ReadSnapshot(r io.Reader) (*PackedGrid, error) {
	br := bufio.NewReader(r)
	h, err := readSnapshotHeader(br)
	if err != nil {
		return nil, err
	}
	// The builder's staging buffers are capped at one block, so a corrupt
	// header declaring a huge cell count allocates at most that up front.
	expected := packedBlockCells
	if h.cells < uint64(expected) {
		expected = int(h.cells)
	}
	sb := snapshotBuilder{PackedBuilder: NewPackedBuilder(h.size, expected), size: h.size}
	if h.v2 {
		err = sb.readV2Body(newBlockReader(br, len(h.size), h.cells))
	} else {
		err = sb.readV1Body(br, h.cells)
	}
	if err != nil {
		return nil, err
	}
	return sb.Grid(), nil
}

// awgHeader is the fixed prefix both snapshot versions share.
type awgHeader struct {
	v2    bool // AWG2 block body; AWG1 flat body otherwise
	size  []int
	cells uint64
}

// readSnapshotHeader reads and range-checks a snapshot's magic, sizes and
// cell count. The checks bound every allocation a body reader makes from
// the header alone.
func readSnapshotHeader(br *bufio.Reader) (awgHeader, error) {
	var h awgHeader
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return h, fmt.Errorf("grid: read snapshot magic: %w", err)
	}
	if magic != snapshotMagic && magic != snapshotMagic2 {
		return h, fmt.Errorf("grid: bad snapshot magic %q", magic[:])
	}
	h.v2 = magic == snapshotMagic2
	var d32 uint32
	if err := binary.Read(br, binary.LittleEndian, &d32); err != nil {
		return h, fmt.Errorf("grid: read snapshot header: %w", err)
	}
	const maxDim = 1 << 10 // far above any real workload; bounds allocation
	if d32 == 0 || d32 > maxDim {
		return h, fmt.Errorf("grid: snapshot dimension %d out of range", d32)
	}
	h.size = make([]int, d32)
	for j := range h.size {
		var s uint32
		if err := binary.Read(br, binary.LittleEndian, &s); err != nil {
			return h, fmt.Errorf("grid: read snapshot header: %w", err)
		}
		if s == 0 || s > 0x10000 {
			return h, fmt.Errorf("grid: snapshot size %d of dimension %d out of range", s, j)
		}
		h.size[j] = int(s)
	}
	if err := binary.Read(br, binary.LittleEndian, &h.cells); err != nil {
		return h, fmt.Errorf("grid: read snapshot header: %w", err)
	}
	max := uint64(1)
	for _, s := range h.size {
		max *= uint64(s)
		if max > 1<<40 {
			max = 1 << 40 // cap the check; sparse grids never approach this
			break
		}
	}
	if h.cells > max {
		return h, fmt.Errorf("grid: snapshot cell count %d exceeds grid volume", h.cells)
	}
	return h, nil
}

// snapshotBuilder is the validating sink both snapshot versions decode
// into: every cell must lie inside the recorded sizes, carry a strictly
// positive finite mass, and follow its predecessor in strict canonical
// order.
type snapshotBuilder struct {
	*PackedBuilder
	size []int
}

// add validates one decoded cell and appends it.
func (sb snapshotBuilder) add(cc []uint16, v float64) error {
	m := sb.Len()
	for j, c := range cc {
		if int(c) >= sb.size[j] {
			return fmt.Errorf("grid: snapshot cell %d coordinate %d out of range in dimension %d", m, c, j)
		}
	}
	// Zero and negative masses are rejected too: tombstones are a transient
	// in-session state the pipeline never clusters, and WriteSnapshot
	// sweeps them on write, so a stream carrying one was not produced by
	// this package.
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("grid: snapshot cell %d has non-positive or non-finite mass %v", m, v)
	}
	// Every consumer (Find, the merges, the transform sweep) assumes
	// strictly increasing canonical order, which also rules out duplicate
	// cells; a reordered or duplicated stream must be reported, not
	// restored.
	if m > 0 && cmpCoords(sb.LastCoords(), cc) >= 0 {
		return fmt.Errorf("grid: snapshot cells %d and %d out of canonical order", m-1, m)
	}
	sb.Append(cc, v)
	return nil
}

// readV1Body restores the flat body of an AWG1 snapshot. Each section is
// read in bounded chunks, growing the coordinate buffer with the data
// actually present: a corrupt header declaring a huge cell count then
// fails on the first missing chunk instead of provoking a giant up-front
// allocation from a few bytes of input. All section-size math stays in
// uint64: converting the declared cell count to int first would truncate
// (and the product cells*d could wrap) on 32-bit platforms, letting an
// adversarial header bypass this bounded-chunk guard. cells ≤ 2^40 and
// d ≤ 2^10 are enforced by ReadSnapshot, so the products cannot overflow.
func (sb snapshotBuilder) readV1Body(br *bufio.Reader, cells uint64) error {
	d := len(sb.size)
	const chunk = 1 << 16
	initial := uint64(chunk)
	if total := cells * uint64(d); total < initial {
		initial = total
	}
	coords := make([]uint16, 0, initial)
	var chunkC [chunk]uint16
	for read, total := uint64(0), cells*uint64(d); read < total; {
		n := chunk
		if rem := total - read; rem < chunk {
			n = int(rem)
		}
		if err := binary.Read(br, binary.LittleEndian, chunkC[:n]); err != nil {
			return fmt.Errorf("grid: read snapshot coords: %w", err)
		}
		coords = append(coords, chunkC[:n]...)
		read += uint64(n)
	}
	// Every declared coordinate arrived, so cells fits in memory (and an
	// int) by construction.
	var chunkV [chunk / 4]float64
	for i := 0; i < int(cells); {
		n := len(chunkV)
		if rem := int(cells) - i; rem < n {
			n = rem
		}
		if err := binary.Read(br, binary.LittleEndian, chunkV[:n]); err != nil {
			return fmt.Errorf("grid: read snapshot vals: %w", err)
		}
		for _, v := range chunkV[:n] {
			if err := sb.add(coords[i*d:(i+1)*d], v); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// WriteSnapshot serializes the packed grid to w in the AWG2 snapshot
// format: the block payloads are written verbatim behind a length prefix.
// Tombstone cells (mass ≤ 0, left behind by a streaming session's
// signed-mass removal until the next merge or compaction sweeps them) are
// swept on write via Compact: ReadSnapshot rejects them, so sweeping keeps
// every snapshot round-trippable whenever in an append/remove sequence it
// is taken. A non-finite mass is corruption and is reported as
// ErrUnserializableGrid.
func (p *PackedGrid) WriteSnapshot(w io.Writer) error {
	// Check before sweeping: a −Inf mass is corruption, not a tombstone.
	for c := p.Cursor(); c.Next(); {
		if v := c.Mass(); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("grid: write snapshot: cell mass %v: %w", v, ErrUnserializableGrid)
		}
	}
	g, _ := p.Compact()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic2[:]); err != nil {
		return fmt.Errorf("grid: write snapshot: %w", err)
	}
	d := g.Dim()
	hdr := make([]uint32, 0, 1+d)
	hdr = append(hdr, uint32(d))
	for _, s := range g.Size {
		hdr = append(hdr, uint32(s))
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("grid: write snapshot header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.Len())); err != nil {
		return fmt.Errorf("grid: write snapshot header: %w", err)
	}
	for b := 0; b < g.blocks(); b++ {
		pl := g.payload(b)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(pl))); err != nil {
			return fmt.Errorf("grid: write snapshot block: %w", err)
		}
		if _, err := bw.Write(pl); err != nil {
			return fmt.Errorf("grid: write snapshot block: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("grid: write snapshot: %w", err)
	}
	return nil
}

// readV2Body restores the block-encoded body of an AWG2 snapshot. Every
// cell passes the same validation as AWG1's.
func (sb snapshotBuilder) readV2Body(blocks *blockReader) error {
	d := len(sb.size)
	for {
		count, err := blocks.next()
		if err != nil || count == 0 {
			return err
		}
		for i := 0; i < count; i++ {
			if err := sb.add(blocks.coords[i*d:(i+1)*d], blocks.masses[i]); err != nil {
				return err
			}
		}
	}
}

// blockReader streams the block body of an AWG2 stream — a snapshot's or a
// spill run's — one length-prefixed block payload at a time, decoding each
// into its own one-block buffers. Decoding is bounded block by block: a
// corrupt header or length prefix fails before any allocation beyond one
// block's buffers.
type blockReader struct {
	br        *bufio.Reader
	d         int
	remaining uint64 // cells the header declared and no block has delivered yet
	payload   []byte
	// coords and masses hold the last decoded block, valid until the next
	// call to next.
	coords []uint16
	masses []float64
}

// newBlockReader returns a reader over the body of an AWG2 stream whose
// header declared cells cells of dimension d.
func newBlockReader(br *bufio.Reader, d int, cells uint64) *blockReader {
	buf := uint64(packedBlockCells)
	if cells < buf {
		buf = cells
	}
	return &blockReader{
		br:        br,
		d:         d,
		remaining: cells,
		payload:   make([]byte, 0, 64),
		coords:    make([]uint16, buf*uint64(d)),
		masses:    make([]float64, buf),
	}
}

// next decodes the next block and returns its cell count, or 0 once the
// declared cells have all been delivered.
func (r *blockReader) next() (int, error) {
	if r.remaining == 0 {
		return 0, nil
	}
	var plen uint32
	if err := binary.Read(r.br, binary.LittleEndian, &plen); err != nil {
		return 0, fmt.Errorf("grid: read snapshot block length: %w", err)
	}
	if plen == 0 || int(plen) > maxPackedPayload(r.d) {
		return 0, fmt.Errorf("grid: snapshot block length %d out of range", plen)
	}
	if cap(r.payload) < int(plen) {
		r.payload = make([]byte, plen)
	}
	r.payload = r.payload[:plen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return 0, fmt.Errorf("grid: read snapshot block: %w", err)
	}
	count, err := decodePackedBlock(r.payload, r.d, r.coords, r.masses)
	if err != nil {
		return 0, fmt.Errorf("grid: read snapshot block: %w", err)
	}
	if uint64(count) > r.remaining {
		return 0, fmt.Errorf("grid: snapshot block of %d cells exceeds declared count", count)
	}
	r.remaining -= uint64(count)
	return count, nil
}
