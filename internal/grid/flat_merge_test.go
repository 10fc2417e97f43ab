package grid

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"adawave/internal/pointset"
)

// mergeFlat merges two flat grids into a flat grid with the merge kernel,
// without a deadline, failing t on error.
func mergeFlat(t testing.TB, live, delta *FlatGrid) (*FlatGrid, []int32, []int32) {
	t.Helper()
	merged := NewFlat(live.Size, live.Len()+delta.Len())
	remap, err := mergeCells(context.Background(), []*cellCursor{flatCursor(live), flatCursor(delta)}, merged)
	if err != nil {
		t.Fatal(err)
	}
	return merged, remap[0], remap[1]
}

// flatGridsIdentical asserts two flat grids agree cell for cell, order
// included (the property the incremental path must preserve so memoized ids
// and downstream passes see exactly the one-shot grid).
func flatGridsIdentical(t *testing.T, want, got *FlatGrid) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("cell count: want %d, got %d", want.Len(), got.Len())
	}
	d := want.Dim()
	for i := 0; i < want.Len(); i++ {
		if cmpCoords(want.Coords[i*d:(i+1)*d], got.Coords[i*d:(i+1)*d]) != 0 {
			t.Fatalf("cell %d coords: want %v, got %v", i, want.CellCoords(i), got.CellCoords(i))
		}
		if want.Vals[i] != got.Vals[i] {
			t.Fatalf("cell %d mass: want %v, got %v", i, want.Vals[i], got.Vals[i])
		}
	}
}

// TestMergeFlatMatchesUnionQuantization: quantizing a prefix and a suffix
// separately and merging must reproduce the one-shot quantization of the
// union bit for bit — cells, masses, order, and the remapped point ids.
func TestMergeFlatMatchesUnionQuantization(t *testing.T) {
	for _, split := range []int{1, 500, 2500, 4999} {
		points, ds := randomDataset(5000, 3, 7)
		q, err := NewQuantizerDatasetCtx(context.Background(), ds, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantIDs := quantizeDataset(t, q, ds, 1)

		a := &pointset.Dataset{Data: ds.Data[:split*ds.D], N: split, D: ds.D}
		b := &pointset.Dataset{Data: ds.Data[split*ds.D:], N: ds.N - split, D: ds.D}
		ga, idsA := quantizeDataset(t, q, a, 1)
		gb, idsB := quantizeDataset(t, q, b, 1)
		merged, remapA, remapB := mergeFlat(t, ga, gb)
		flatGridsIdentical(t, want, merged)
		for i := 0; i < split; i++ {
			if remapA[idsA[i]] != wantIDs[i] {
				t.Fatalf("split %d: point %d id: want %d, got %d", split, i, wantIDs[i], remapA[idsA[i]])
			}
		}
		for i := split; i < len(points); i++ {
			if remapB[idsB[i-split]] != wantIDs[i] {
				t.Fatalf("split %d: point %d id: want %d, got %d", split, i, wantIDs[i], remapB[idsB[i-split]])
			}
		}
	}
}

// TestMergeFlatSignedRemoval: a delta with negative masses subtracts, and
// cells cancelled to zero are dropped with a −1 remap entry.
func TestMergeFlatSignedRemoval(t *testing.T) {
	live := NewFlat([]int{8, 8}, 4)
	live.Append([]uint16{1, 1}, 3)
	live.Append([]uint16{2, 5}, 1)
	live.Append([]uint16{4, 0}, 2)
	delta := NewFlat([]int{8, 8}, 2)
	delta.Append([]uint16{1, 1}, -1)
	delta.Append([]uint16{2, 5}, -1)
	merged, liveRemap, deltaRemap := mergeFlat(t, live, delta)
	if merged.Len() != 2 {
		t.Fatalf("cells: got %d, want 2", merged.Len())
	}
	if merged.Vals[0] != 2 || merged.Vals[1] != 2 {
		t.Fatalf("masses: got %v", merged.Vals)
	}
	if liveRemap[0] != 0 || liveRemap[1] != -1 || liveRemap[2] != 1 {
		t.Fatalf("liveRemap: got %v", liveRemap)
	}
	if deltaRemap[0] != 0 || deltaRemap[1] != -1 {
		t.Fatalf("deltaRemap: got %v", deltaRemap)
	}
}

// TestMergeFlatSweepsTombstones: zero-mass cells already in the live grid
// are swept by the merge even when the delta does not touch them.
func TestMergeFlatSweepsTombstones(t *testing.T) {
	live := NewFlat([]int{8, 8}, 3)
	live.Append([]uint16{0, 3}, 0) // tombstone left by an earlier removal
	live.Append([]uint16{5, 5}, 4)
	delta := NewFlat([]int{8, 8}, 1)
	delta.Append([]uint16{7, 7}, 1)
	merged, liveRemap, _ := mergeFlat(t, live, delta)
	if merged.Len() != 2 {
		t.Fatalf("cells: got %d, want 2", merged.Len())
	}
	if liveRemap[0] != -1 || liveRemap[1] != 0 {
		t.Fatalf("liveRemap: got %v", liveRemap)
	}
}

// TestCompact: the tombstone sweep drops zero-mass cells, keeps canonical
// order and remaps swept cells to −1; a clean grid is left as it is.
func TestCompact(t *testing.T) {
	f := NewFlat([]int{8, 8}, 4)
	f.Append([]uint16{0, 1}, 2)
	f.Append([]uint16{1, 0}, 0)
	f.Append([]uint16{3, 3}, 1)
	f.Append([]uint16{6, 2}, 0)
	p, remap := PackFlat(f).Compact()
	if g := p.Unpack(); g.Len() != 2 || g.Vals[0] != 2 || g.Vals[1] != 1 {
		t.Fatalf("compacted grid: len %d vals %v", g.Len(), g.Vals)
	}
	want := []int32{0, -1, 1, -1}
	if len(remap) != len(want) {
		t.Fatalf("remap: got %v, want %v", remap, want)
	}
	for i, r := range remap {
		if r != want[i] {
			t.Fatalf("remap: got %v, want %v", remap, want)
		}
	}
	if p2, r2 := p.Compact(); r2 != nil || p2 != p {
		t.Fatal("clean grid must report a nil remap")
	}
}

// TestSnapshotRoundTrip: PackedGrid.WriteSnapshot → ReadSnapshot must
// reproduce the quantized grid exactly, order included.
func TestSnapshotRoundTrip(t *testing.T) {
	_, ds := randomDataset(3000, 3, 11)
	q, err := NewQuantizerDatasetCtx(context.Background(), ds, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := quantizeDataset(t, q, ds, 1)
	var buf bytes.Buffer
	if err := PackFlat(f).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	flatGridsIdentical(t, f, got.Unpack())
}

// TestSnapshotRejectsCorruption: bad magic, truncation and out-of-range
// coordinates in an AWG1 stream must all be reported, not restored.
func TestSnapshotRejectsCorruption(t *testing.T) {
	f := NewFlat([]int{8, 8}, 2)
	f.Append([]uint16{1, 2}, 3)
	f.Append([]uint16{4, 4}, 1)
	good := encodeAWG1(f)

	if _, err := ReadSnapshot(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic must error")
	}
	for _, cut := range []int{3, 6, len(good) / 2, len(good) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	bad := append([]byte(nil), good...)
	// Coordinate bytes follow the magic (4), dim (4), sizes (8) and cell
	// count (8); force the first coordinate out of the 8-cell range.
	bad[24] = 0xFF
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("out-of-range coordinate must error")
	}
	// Swap the two cells' coordinates in place: every value stays in
	// range, but the canonical order every consumer relies on is broken.
	swapped := append([]byte(nil), good...)
	copy(swapped[24:28], good[28:32])
	copy(swapped[28:32], good[24:28])
	if _, err := ReadSnapshot(bytes.NewReader(swapped)); err == nil {
		t.Fatal("out-of-order cells must error")
	}
	// Duplicate the first cell over the second: canonical order is
	// strictly increasing, so equal cells must also be rejected.
	dup := append([]byte(nil), good...)
	copy(dup[28:32], good[24:28])
	if _, err := ReadSnapshot(bytes.NewReader(dup)); err == nil {
		t.Fatal("duplicate cells must error")
	}
	// Tombstones (zero-mass cells) are transient in-session state: the
	// writer sweeps them (see TestSnapshotSweepsTombstonesOnWrite),
	// so a stream carrying one was hand-crafted or corrupted and must be
	// rejected. Zero the first cell's mass bytes in an otherwise valid
	// stream (vals follow the 24-byte header and 8 coordinate bytes).
	tomb := append([]byte(nil), good...)
	for i := 32; i < 40; i++ {
		tomb[i] = 0
	}
	if _, err := ReadSnapshot(bytes.NewReader(tomb)); err == nil {
		t.Fatal("zero-mass cell must error")
	}
	// A header declaring billions of cells with no body must fail on the
	// first missing chunk, not allocate the declared size up front.
	var bomb bytes.Buffer
	bomb.Write([]byte("AWG1"))
	bomb.Write([]byte{2, 0, 0, 0})             // dim 2
	bomb.Write([]byte{0, 0, 1, 0, 0, 0, 1, 0}) // sizes 65536, 65536
	bomb.Write([]byte{0, 0, 0, 0, 1, 0, 0, 0}) // 2^32 cells
	if _, err := ReadSnapshot(&bomb); err == nil {
		t.Fatal("truncated giant-cell-count snapshot must error")
	}
}

// TestMergeFlatRandomized cross-checks the merge against a map-based model
// over many random grid pairs, including negative and cancelling deltas.
func TestMergeFlatRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		size := []int{16, 16}
		live, delta := NewFlat(size, 0), NewFlat(size, 0)
		model := map[[2]uint16]float64{}
		var coords [][2]uint16
		for i := 0; i < 40; i++ {
			c := [2]uint16{uint16(rng.Intn(16)), uint16(rng.Intn(16))}
			if _, dup := model[c]; dup {
				continue
			}
			m := float64(1 + rng.Intn(3))
			model[c] = m
			coords = append(coords, c)
		}
		sortCoordPairs(coords)
		for _, c := range coords {
			live.Append(c[:], model[c])
		}
		var dcoords [][2]uint16
		dmass := map[[2]uint16]float64{}
		for i := 0; i < 20; i++ {
			var c [2]uint16
			var m float64
			if rng.Intn(2) == 0 && len(coords) > 0 {
				// Subtract some or all of an existing cell's mass.
				c = coords[rng.Intn(len(coords))]
				m = -float64(rng.Intn(int(model[c]) + 1))
			} else {
				c = [2]uint16{uint16(rng.Intn(16)), uint16(rng.Intn(16))}
				m = float64(1 + rng.Intn(3))
			}
			if _, dup := dmass[c]; dup {
				continue
			}
			dmass[c] = m
			dcoords = append(dcoords, c)
		}
		sortCoordPairs(dcoords)
		for _, c := range dcoords {
			delta.Append(c[:], dmass[c])
			model[c] += dmass[c]
		}
		merged, _, _ := mergeFlat(t, live, delta)
		kept := 0
		for _, m := range model {
			if m > 0 {
				kept++
			}
		}
		if merged.Len() != kept {
			t.Fatalf("round %d: cells: got %d, want %d", round, merged.Len(), kept)
		}
		for i := 0; i < merged.Len(); i++ {
			c := [2]uint16{merged.CellCoords(i)[0], merged.CellCoords(i)[1]}
			if merged.Vals[i] != model[c] {
				t.Fatalf("round %d: cell %v: got %v, want %v", round, c, merged.Vals[i], model[c])
			}
			if i > 0 && cmpCoords(merged.CellCoords(i-1), merged.CellCoords(i)) >= 0 {
				t.Fatalf("round %d: not canonical at %d", round, i)
			}
		}
	}
}

func sortCoordPairs(cs [][2]uint16) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cmpCoords(cs[j][:], cs[j-1][:]) < 0; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
