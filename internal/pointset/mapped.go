package pointset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Mapped-Dataset file format: a fixed 32-byte header, the row-major
// float64 payload and a bounding-box trailer, everything little-endian.
//
//	offset       size   field
//	0            8      magic "AWDSET02" (format tag + version)
//	8            8      n — number of points (uint64)
//	16           8      d — dimensionality (uint64)
//	24           8      reserved, zero
//	32           n·d·8  coordinates, row-major IEEE-754 float64
//	32+n·d·8     d·8    per-dimension minimum of the rows (float64)
//	32+n·d·8+d·8 d·8    per-dimension maximum of the rows (float64)
//
// The header is 32 bytes so the payload starts 8-byte aligned: an mmap view
// can expose it as a []float64 directly, and a Dataset built over that view
// reads rows in place — no copy, no per-point allocation, resident memory
// bounded by the page cache instead of the Go heap. CreateMapped streams
// rows through a buffered writer and stamps the true point count only on
// Close (the placeholder count is deliberately invalid), so a torn or
// truncated file — crashed writer, partial copy, tail chopped off — never
// passes OpenMapped's exact length check and is reported as
// ErrCorruptDataset instead of being silently clustered short.
//
// The trailer is the bounding box the writer saw, folded in row order with
// the quantizer's own rule (a bound moves only on a strict < or >), so its
// bits are the bits a scan of the rows computes, −0 and +0 included. A
// file with zero rows or any non-finite coordinate records no box: its
// trailer is all NaN. The quantizer builds its grid from a recorded box
// instead of scanning the rows, and checks the box in the pass that
// computes cells. Version 01 files ("AWDSET01": the same header and
// payload, no trailer) stay readable and record no box.

// mappedMagic identifies a mapped-Dataset file; the trailing "02" is the
// format version. mappedMagicV1 is the trailer-less version 01.
const (
	mappedMagic   = "AWDSET02"
	mappedMagicV1 = "AWDSET01"
)

// mappedHeaderSize is the fixed header length. It is a multiple of 8 so the
// float64 payload of a page-aligned mapping is itself 8-byte aligned.
const mappedHeaderSize = 32

// mappedMaxDim bounds the dimensionality a mapped file may declare — far
// above any real workload, low enough that a corrupt header cannot drive
// the size arithmetic into overflow.
const mappedMaxDim = 1 << 20

// ErrCorruptDataset tags a mapped-Dataset file that fails validation: wrong
// magic or version, an impossible header, or a payload whose length does not
// match the declared point count (torn write, truncation). Match it with
// errors.Is.
var ErrCorruptDataset = errors.New("pointset: corrupt mapped dataset")

// corrupt builds an ErrCorruptDataset-tagged error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptDataset, fmt.Sprintf(format, args...))
}

// MappedWriter streams rows into a mapped-Dataset file. Rows are buffered
// and encoded on the fly, so writing an N-point dataset needs O(1) memory;
// Close finalizes the header with the true point count. A writer that never
// reaches Close leaves a file OpenMapped rejects as corrupt.
type MappedWriter struct {
	f   *os.File
	bw  *bufio.Writer
	d   int
	n   uint64
	buf []byte
	// mins and maxs are the bounding box of the rows so far; finite is
	// false once a row held a NaN or ±Inf.
	mins, maxs []float64
	finite     bool
}

// CreateMapped creates (or truncates) a mapped-Dataset file for
// d-dimensional points at path. Fill it with AppendRow and finalize with
// Close.
func CreateMapped(path string, d int) (*MappedWriter, error) {
	if d <= 0 || d > mappedMaxDim {
		return nil, fmt.Errorf("pointset: mapped dataset dimension must be in [1, %d], got %d", mappedMaxDim, d)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &MappedWriter{
		f:      f,
		bw:     bufio.NewWriterSize(f, 1<<20),
		d:      d,
		buf:    make([]byte, 8*d),
		mins:   make([]float64, d),
		maxs:   make([]float64, d),
		finite: true,
	}
	// Placeholder header: the point count is all-ones, which no valid file
	// can carry, so a writer that dies before Close leaves a file that
	// fails OpenMapped's validation instead of reading as empty.
	hdr := make([]byte, mappedHeaderSize)
	copy(hdr, mappedMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], ^uint64(0))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(d))
	if _, err := w.bw.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Dim returns the writer's dimensionality.
func (w *MappedWriter) Dim() int { return w.d }

// N returns the number of rows appended so far.
func (w *MappedWriter) N() int { return int(w.n) }

// AppendRow appends one point. The row length must equal the writer's
// dimensionality. It folds the row into the bounding box the file records:
// the first row seeds it, and a later value moves a bound only when it is
// strictly below the minimum or above the maximum.
func (w *MappedWriter) AppendRow(row []float64) error {
	if len(row) != w.d {
		return fmt.Errorf("pointset: appending row of dimension %d to %d-dimensional mapped dataset", len(row), w.d)
	}
	for j, v := range row {
		binary.LittleEndian.PutUint64(w.buf[8*j:], math.Float64bits(v))
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	if w.n == 0 {
		copy(w.mins, row)
		copy(w.maxs, row)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			w.finite = false
		}
		if v < w.mins[j] {
			w.mins[j] = v
		}
		if v > w.maxs[j] {
			w.maxs[j] = v
		}
	}
	w.n++
	return nil
}

// Close appends the bounding-box trailer, flushes buffered rows, stamps the
// final point count into the header, syncs, and closes the file. Only a
// Close that returns nil yields a file OpenMapped accepts. Close is
// idempotent.
func (w *MappedWriter) Close() error {
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	trailer := make([]byte, 16*w.d)
	for j := range w.d {
		lo, hi := w.mins[j], w.maxs[j]
		if w.n == 0 || !w.finite {
			lo, hi = math.NaN(), math.NaN()
		}
		binary.LittleEndian.PutUint64(trailer[8*j:], math.Float64bits(lo))
		binary.LittleEndian.PutUint64(trailer[8*(w.d+j):], math.Float64bits(hi))
	}
	_, err := w.bw.Write(trailer)
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		var nbuf [8]byte
		binary.LittleEndian.PutUint64(nbuf[:], w.n)
		_, err = f.WriteAt(nbuf[:], 8)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Mapped is a read-only Dataset backed by a mapped-Dataset file. On unix
// the coordinates are a zero-copy mmap view — the payload never enters the
// Go heap, so datasets far larger than memory quantize under the OS page
// cache's management; elsewhere (and on big-endian hosts) the payload is
// decoded into memory once. Close unmaps the view; the Dataset (and every
// Row view into it) is invalid afterwards.
type Mapped struct {
	ds Dataset
	mm []byte // mmap region; nil when the payload was decoded into memory
}

// OpenMapped opens and validates a mapped-Dataset file of either version. A
// file whose magic, header, or byte length (trailer included) does not
// check out fails with an ErrCorruptDataset-tagged error. The Dataset view
// of a version 02 file carries its recorded bounding box (Dataset.Bounds);
// the trailer's values are not checked here but by the quantize pass that
// uses them.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping, once established, outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < mappedHeaderSize {
		return nil, corrupt("%s is %d bytes, smaller than the %d-byte header", path, size, mappedHeaderSize)
	}
	var hdr [mappedHeaderSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, mappedHeaderSize), hdr[:]); err != nil {
		return nil, err
	}
	magic := string(hdr[:8])
	if magic != mappedMagic && magic != mappedMagicV1 {
		return nil, corrupt("%s: bad magic %q (want %q or %q)", path, hdr[:8], mappedMagic, mappedMagicV1)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	d := binary.LittleEndian.Uint64(hdr[16:24])
	if d == 0 || d > mappedMaxDim {
		return nil, corrupt("%s: dimensionality %d out of range [1, %d]", path, d, mappedMaxDim)
	}
	const maxInt = uint64(^uint(0) >> 1)
	if n > (maxInt-mappedHeaderSize-16*mappedMaxDim)/8/d {
		return nil, corrupt("%s: declared size %d×%d overflows this platform", path, n, d)
	}
	payloadEnd := int64(mappedHeaderSize) + int64(n*d*8)
	want := payloadEnd
	if magic == mappedMagic {
		want += int64(16 * d)
	}
	if size != want {
		return nil, corrupt("%s: %d bytes on disk, %s header declares %d points × %d dims = %d bytes (torn or truncated write?)",
			path, size, magic, n, d, want)
	}
	var box *recordedBox
	if magic == mappedMagic {
		if box, err = readBox(f, payloadEnd, int(d)); err != nil {
			return nil, err
		}
	}
	floats, mm, err := mapFloats(f, int(n), int(d))
	if err != nil {
		return nil, err
	}
	if box != nil {
		box.data = floats
	}
	return &Mapped{
		ds: Dataset{Data: floats, N: int(n), D: int(d), box: box},
		mm: mm,
	}, nil
}

// readBox decodes the bounding-box trailer of a version 02 file: d mins
// then d maxs starting at byte off.
func readBox(f *os.File, off int64, d int) (*recordedBox, error) {
	raw := make([]byte, 16*d)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, int64(len(raw))), raw); err != nil {
		return nil, fmt.Errorf("pointset: reading mapped dataset bounds: %w", err)
	}
	b := &recordedBox{mins: make([]float64, d), maxs: make([]float64, d)}
	for j := range d {
		b.mins[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		b.maxs[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(d+j):]))
	}
	return b, nil
}

// Dataset returns the mapped file as a read-only flat Dataset view — hand
// it to any Dataset-consuming entry point. Mutating its Data (or the slices
// Row/Rows return) is undefined: on unix the backing pages are mapped
// read-only and a write faults.
func (m *Mapped) Dataset() *Dataset { return &m.ds }

// N returns the number of points.
func (m *Mapped) N() int { return m.ds.N }

// Dim returns the dimensionality.
func (m *Mapped) Dim() int { return m.ds.D }

// Close releases the mapping. The Dataset view and every row slice derived
// from it are invalid after Close. Close is idempotent.
func (m *Mapped) Close() error {
	mm := m.mm
	m.mm = nil
	m.ds = Dataset{}
	if mm == nil {
		return nil
	}
	return unmapFloats(mm)
}

// hostLittleEndian reports whether the host stores multi-byte integers
// little-endian — the precondition for the zero-copy float64 view over the
// little-endian file payload.
func hostLittleEndian() bool {
	return binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1
}

// readFloats is the portable payload loader: decode the little-endian
// payload of f into a fresh slice. It is the fallback where mmap is
// unavailable (non-unix builds, big-endian hosts) and costs one full copy
// of the payload in memory.
func readFloats(f *os.File, n, d int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, mappedHeaderSize, int64(n)*int64(d)*8), 1<<20)
	out := make([]float64, n*d)
	var buf [8]byte
	for i := range out {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, fmt.Errorf("pointset: reading mapped dataset payload: %w", err)
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return out, nil
}
