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
// in-memory blocks verbatim, so checkpointing a session grid is a copy.
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
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("grid: read snapshot magic: %w", err)
	}
	if magic != snapshotMagic && magic != snapshotMagic2 {
		return nil, fmt.Errorf("grid: bad snapshot magic %q", magic[:])
	}
	var d32 uint32
	if err := binary.Read(br, binary.LittleEndian, &d32); err != nil {
		return nil, fmt.Errorf("grid: read snapshot header: %w", err)
	}
	const maxDim = 1 << 10 // far above any real workload; bounds allocation
	if d32 == 0 || d32 > maxDim {
		return nil, fmt.Errorf("grid: snapshot dimension %d out of range", d32)
	}
	d := int(d32)
	size := make([]int, d)
	for j := range size {
		var s uint32
		if err := binary.Read(br, binary.LittleEndian, &s); err != nil {
			return nil, fmt.Errorf("grid: read snapshot header: %w", err)
		}
		if s == 0 || s > 0x10000 {
			return nil, fmt.Errorf("grid: snapshot size %d of dimension %d out of range", s, j)
		}
		size[j] = int(s)
	}
	var cells uint64
	if err := binary.Read(br, binary.LittleEndian, &cells); err != nil {
		return nil, fmt.Errorf("grid: read snapshot header: %w", err)
	}
	max := uint64(1)
	for _, s := range size {
		max *= uint64(s)
		if max > 1<<40 {
			max = 1 << 40 // cap the check; sparse grids never approach this
			break
		}
	}
	if cells > max {
		return nil, fmt.Errorf("grid: snapshot cell count %d exceeds grid volume", cells)
	}
	// The builder's staging buffers are capped at one block, so a corrupt
	// header declaring a huge cell count allocates at most that up front.
	expected := packedBlockCells
	if cells < uint64(expected) {
		expected = int(cells)
	}
	sb := snapshotBuilder{PackedBuilder: NewPackedBuilder(size, expected), size: size}
	var err error
	if magic == snapshotMagic2 {
		err = sb.readV2Body(br, cells)
	} else {
		err = sb.readV1Body(br, cells)
	}
	if err != nil {
		return nil, err
	}
	return sb.Grid(), nil
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

// readV2Body restores the block-encoded body of an AWG2 snapshot.
// Decoding is bounded block by block — a corrupt header or length prefix
// fails before any allocation beyond one block's buffers — and every cell
// passes the same validation as AWG1's.
func (sb snapshotBuilder) readV2Body(br *bufio.Reader, cells uint64) error {
	d := len(sb.size)
	buf := uint64(packedBlockCells)
	if cells < buf {
		buf = cells
	}
	blkCoords := make([]uint16, buf*uint64(d))
	blkMasses := make([]float64, buf)
	payload := make([]byte, 0, 64)
	for remaining := cells; remaining > 0; {
		var plen uint32
		if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
			return fmt.Errorf("grid: read snapshot block length: %w", err)
		}
		if plen == 0 || int(plen) > maxPackedPayload(d) {
			return fmt.Errorf("grid: snapshot block length %d out of range", plen)
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("grid: read snapshot block: %w", err)
		}
		count, err := decodePackedBlock(payload, d, blkCoords, blkMasses)
		if err != nil {
			return fmt.Errorf("grid: read snapshot block: %w", err)
		}
		if uint64(count) > remaining {
			return fmt.Errorf("grid: snapshot block of %d cells exceeds declared count", count)
		}
		for i := 0; i < count; i++ {
			if err := sb.add(blkCoords[i*d:(i+1)*d], blkMasses[i]); err != nil {
				return err
			}
		}
		remaining -= uint64(count)
	}
	return nil
}
