package grid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"testing"
)

// encodeAWG1 renders f in the retired flat AWG1 snapshot encoding, byte
// for byte what the flat writer emitted (TestReadSnapshotAWG1Fixture pins
// that against a committed snapshot), so the read-only AWG1 branch of
// ReadSnapshot stays covered by crafted and corrupted streams.
func encodeAWG1(f *FlatGrid) []byte {
	sizes := make([]uint32, f.Dim())
	for j, s := range f.Size {
		sizes[j] = uint32(s)
	}
	buf := bytes.NewBuffer(snapshotHeader(sizes, uint64(f.Len())))
	binary.Write(buf, binary.LittleEndian, f.Coords)
	binary.Write(buf, binary.LittleEndian, f.Vals)
	return buf.Bytes()
}

// awg1FixtureGrid is the grid testdata/awg1.snap holds: a deterministic
// 3-D grid with non-uniform sizes and summed integer masses, in canonical
// order.
func awg1FixtureGrid() *FlatGrid {
	acc := map[[3]uint16]float64{}
	for i := 0; i < 240; i++ {
		k := [3]uint16{uint16(i * 7 % 16), uint16((i*5 + 3) % 12), uint16(i * 3 % 8)}
		acc[k] += float64(1 + i%4)
	}
	f := NewFlat([]int{16, 12, 8}, len(acc))
	for k, v := range acc {
		f.Append(k[:], v)
	}
	f.SortCanonical()
	return f
}

// TestReadSnapshotAWG1Fixture: testdata/awg1.snap was written by the flat
// AWG1 writer before it was retired. ReadSnapshot must restore it to
// exactly the grid an AWG2 round trip of the same cells yields — sizes,
// cells, masses and order — so checkpoints from before the retirement
// keep restoring.
func TestReadSnapshotAWG1Fixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/awg1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, snapshotMagic[:]) {
		t.Fatalf("fixture starts %q, want the AWG1 magic", raw[:4])
	}
	want := awg1FixtureGrid()
	if !bytes.Equal(encodeAWG1(want), raw) {
		t.Fatal("encodeAWG1 no longer reproduces the retired writer's bytes")
	}
	got, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("AWG1 fixture failed to restore: %v", err)
	}
	var buf bytes.Buffer
	if err := PackFlat(want).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	roundTrip, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*PackedGrid{got, roundTrip} {
		if len(g.Size) != len(want.Size) {
			t.Fatalf("restored %d dimensions, want %d", len(g.Size), len(want.Size))
		}
		for j := range want.Size {
			if g.Size[j] != want.Size[j] {
				t.Fatalf("restored size %v, want %v", g.Size, want.Size)
			}
		}
	}
	sameGrid(t, roundTrip.Unpack(), got.Unpack(), "AWG1 fixture vs AWG2 round trip")
	sameGrid(t, want, got.Unpack(), "AWG1 fixture vs its source grid")
}

// tombstonedGrid returns a canonical 2-D grid whose middle cell is a
// tombstone (mass 0), as left behind by a session's signed-mass removal
// between a Remove and the next sweep.
func tombstonedGrid() *FlatGrid {
	f := NewFlat([]int{8, 8}, 4)
	f.Append([]uint16{1, 2}, 3)
	f.Append([]uint16{2, 5}, 0) // tombstone
	f.Append([]uint16{4, 1}, 1)
	f.Append([]uint16{7, 7}, 2)
	return f
}

// TestSnapshotSweepsTombstonesOnWrite: a snapshot taken between a removal
// and the next sweep (the grid still holds a zero-mass tombstone) must
// round-trip — WriteSnapshot sweeps the tombstone, and ReadSnapshot yields
// exactly the live cells.
func TestSnapshotSweepsTombstonesOnWrite(t *testing.T) {
	f := tombstonedGrid()
	var buf bytes.Buffer
	if err := PackFlat(f).WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot on tombstoned grid: %v", err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot of tombstone-swept snapshot: %v", err)
	}
	got := restored.Unpack()
	want := f.Clone()
	want.Compact()
	if got.Len() != want.Len() {
		t.Fatalf("restored %d cells, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if cmpCoords(got.CellCoords(i), want.CellCoords(i)) != 0 || got.Vals[i] != want.Vals[i] {
			t.Fatalf("cell %d: got %v=%v, want %v=%v",
				i, got.CellCoords(i), got.Vals[i], want.CellCoords(i), want.Vals[i])
		}
	}
}

// TestSnapshotNegativeMassSwept: over-cancelled cells (mass < 0) are
// tombstones too and must be swept, not serialized.
func TestSnapshotNegativeMassSwept(t *testing.T) {
	f := NewFlat([]int{4, 4}, 2)
	f.Append([]uint16{0, 1}, 2)
	f.Append([]uint16{3, 3}, -1)
	var buf bytes.Buffer
	if err := PackFlat(f).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Unpack(); got.Len() != 1 || got.Vals[0] != 2 {
		t.Fatalf("got %d cells (vals %v), want the single live cell", got.Len(), got.Vals)
	}
}

// TestSnapshotRejectsNonFiniteMass: NaN/Inf masses are corruption, not
// tombstones — WriteSnapshot reports them instead of writing a stream
// ReadSnapshot would reject.
func TestSnapshotRejectsNonFiniteMass(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := NewFlat([]int{4}, 1)
		f.Append([]uint16{1}, v)
		if err := PackFlat(f).WriteSnapshot(&bytes.Buffer{}); !errors.Is(err, ErrUnserializableGrid) {
			t.Fatalf("mass %v: got %v, want ErrUnserializableGrid", v, err)
		}
	}
}

// snapshotHeader assembles an adversarial snapshot header: magic, dim,
// sizes, and a declared cell count, with no cell data behind it.
func snapshotHeader(sizes []uint32, cells uint64) []byte {
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(len(sizes)))
	binary.Write(&buf, binary.LittleEndian, sizes)
	binary.Write(&buf, binary.LittleEndian, cells)
	return buf.Bytes()
}

// TestSnapshotAdversarialCellCounts: headers declaring huge cell counts must
// fail on the missing data without a giant up-front allocation — including
// counts crafted so that a conversion to int (or the product cells*dim)
// would truncate or wrap on 32-bit platforms and bypass the bounded-chunk
// guard. The bounds math must therefore stay in uint64.
func TestSnapshotAdversarialCellCounts(t *testing.T) {
	max4 := []uint32{0x10000, 0x10000, 0x10000, 0x10000} // volume cap 2^40
	cases := []struct {
		name  string
		sizes []uint32
		cells uint64
	}{
		// int32(cells) is negative; int(cells)*4 wraps on 32-bit.
		{"int32-truncation", max4, 1<<31 + 1},
		// int(cells)*d overflows 32-bit int while int(cells) stays positive.
		{"product-wrap", max4, 1 << 30},
		// Largest count the volume check admits.
		{"volume-cap", max4, 1 << 40},
		// Declared count exceeding the grid volume is rejected outright.
		{"over-volume", []uint32{4, 4}, 17},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSnapshot(bytes.NewReader(snapshotHeader(tc.sizes, tc.cells))); err == nil {
				t.Fatal("adversarial header must not restore")
			}
		})
	}
}

// FuzzReadSnapshot: arbitrary bytes must never panic or provoke unbounded
// allocation, and any stream that does restore — AWG1 or AWG2 — must
// re-serialize through PackedGrid.WriteSnapshot and restore again to the
// same grid.
func FuzzReadSnapshot(f *testing.F) {
	g := NewFlat([]int{8, 8}, 2)
	g.Append([]uint16{1, 2}, 2)
	g.Append([]uint16{3, 0}, 1)
	var seed bytes.Buffer
	if err := PackFlat(g).WriteSnapshot(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(snapshotHeader([]uint32{0x10000, 0x10000, 0x10000, 0x10000}, 1<<31+1))
	f.Add([]byte("AWG1"))
	awg1, err := os.ReadFile("testdata/awg1.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(awg1)
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := restored.WriteSnapshot(&buf); err != nil {
			t.Fatalf("restored grid failed to re-serialize: %v", err)
		}
		again, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-serialized snapshot failed to restore: %v", err)
		}
		sameGrid(t, restored.Unpack(), again.Unpack(), "re-serialized snapshot")
	})
}
