package grid

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomCanonicalGrid builds a canonical-order grid of n distinct random
// cells. With prob intMass a cell's mass is a small positive integer count
// (the common post-quantization shape); otherwise an arbitrary float.
func randomPackedGrid(rng *rand.Rand, n, d, scale int, intMass float64) *FlatGrid {
	size := make([]int, d)
	vol := 1
	for j := range size {
		size[j] = scale
		if vol < 1<<30 {
			vol *= scale
		}
	}
	// Asking for more distinct cells than half the grid volume would make
	// rejection sampling crawl (or never finish); clamp.
	if n > vol/2 {
		n = vol / 2
	}
	if n < 1 {
		n = 1
	}
	seen := map[string]bool{}
	g := NewFlat(size, n)
	coords := make([][]uint16, 0, n)
	for len(coords) < n {
		c := make([]uint16, d)
		for j := range c {
			c[j] = uint16(rng.Intn(scale))
		}
		k := string(keyBytes(c))
		if seen[k] {
			continue
		}
		seen[k] = true
		coords = append(coords, c)
	}
	sortCoords(coords)
	for _, c := range coords {
		var mass float64
		if rng.Float64() < intMass {
			mass = float64(1 + rng.Intn(1000))
		} else {
			mass = rng.NormFloat64() * 1e6
			if mass == 0 {
				mass = 0.5
			}
		}
		g.Append(c, mass)
	}
	return g
}

func keyBytes(c []uint16) []byte {
	b := make([]byte, 2*len(c))
	for j, v := range c {
		b[2*j], b[2*j+1] = byte(v>>8), byte(v)
	}
	return b
}

func sortCoords(cs [][]uint16) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cmpCoords(cs[j], cs[j-1]) < 0; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// TestPackedRoundTrip packs random grids across dimensions, sizes (within
// one block and spanning several), and mass shapes, and checks the packed
// form reproduces every cell bit for bit through Unpack, UnpackInto into a
// reused grid, and the cursor — and that integer-mass grids actually
// compress below the flat 2·d+8 bytes per cell.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := &FlatGrid{}
	for iter := 0; iter < 40; iter++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(3*packedBlockCells)
		scale := 8 << rng.Intn(5)
		if maxCells := 1; true {
			for j := 0; j < d; j++ {
				maxCells *= scale
			}
			if n > maxCells/2 {
				n = maxCells / 2
			}
		}
		if n == 0 {
			n = 1
		}
		intMass := 1.0
		if iter%3 == 1 {
			intMass = 0.5
		}
		f := randomPackedGrid(rng, n, d, scale, intMass)
		p := PackFlat(f)
		if p.Len() != f.Len() || p.Dim() != f.Dim() {
			t.Fatalf("iter %d: packed %d cells dim %d, want %d dim %d", iter, p.Len(), p.Dim(), f.Len(), f.Dim())
		}
		sameGrid(t, f, p.Unpack(), "unpack")
		cur := p.Cursor()
		for i := 0; i < f.Len(); i++ {
			if !cur.Next() {
				t.Fatalf("iter %d: cursor exhausted at %d", iter, i)
			}
			if cmpCoords(cur.Coords(), f.CellCoords(i)) != 0 {
				t.Fatalf("iter %d: cursor cell %d coords %v, want %v", iter, i, cur.Coords(), f.CellCoords(i))
			}
			if math.Float64bits(cur.Mass()) != math.Float64bits(f.Vals[i]) {
				t.Fatalf("iter %d: cursor cell %d mass %v, want %v", iter, i, cur.Mass(), f.Vals[i])
			}
		}
		if cur.Next() {
			t.Fatalf("iter %d: cursor past the end", iter)
		}
		// Like a pass's pooled landing grid, reused still holds the previous
		// iteration's unpacking; UnpackInto must overwrite and resize it.
		reused = p.UnpackInto(reused)
		sameGrid(t, f, reused, "unpack into reused grid")
		if reused.Dim() != d || reused.Size[0] != scale {
			t.Fatalf("iter %d: reused unpacking has size %v, want %d × %d", iter, reused.Size, d, scale)
		}
		if tm, want := p.TotalMass(), f.TotalMass(); math.Abs(tm-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("iter %d: total mass %v, want %v", iter, tm, want)
		}
		if intMass == 1.0 {
			flat := int64(f.Len()) * int64(2*d+8)
			if p.Bytes() >= flat {
				t.Fatalf("iter %d: packed %d bytes not below flat %d (n=%d d=%d scale=%d)", iter, p.Bytes(), flat, n, d, scale)
			}
		}
	}
}

// TestPackedFindMissing checks cell lookups on the flat unpacking every
// pass computes on: present cells keep their positional index, absent cells
// and an empty grid (which keeps its sizes) find nothing.
func TestPackedFindMissing(t *testing.T) {
	empty := PackFlat(NewFlat([]int{8, 8}, 0)).Unpack()
	if empty.Len() != 0 || empty.Dim() != 2 || empty.Size[1] != 8 {
		t.Fatalf("empty unpacking: %d cells, size %v", empty.Len(), empty.Size)
	}
	if got := empty.Find([]uint16{1, 1}); got != -1 {
		t.Fatalf("empty Find = %d", got)
	}
	g := NewFlat([]int{8, 8}, 3)
	g.Append([]uint16{1, 1}, 1)
	g.Append([]uint16{4, 0}, 2)
	g.Append([]uint16{4, 7}, 3)
	u := PackFlat(g).Unpack()
	for i := 0; i < g.Len(); i++ {
		if got := u.Find(g.CellCoords(i)); got != i {
			t.Fatalf("Find(%v) = %d, want %d", g.CellCoords(i), got, i)
		}
	}
	for _, c := range [][]uint16{{0, 0}, {1, 2}, {4, 1}, {7, 7}} {
		if got := u.Find(c); got != -1 {
			t.Fatalf("Find(%v) = %d, want -1", c, got)
		}
	}
}

// TestMergePackedFlatEquivalence checks MergePackedFlatCtx produces the
// same merged cells and remaps as MergeFlatCtx on the flat equivalents,
// including tombstone drops from signed-mass deltas.
func TestMergePackedFlatEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 30; iter++ {
		d := 1 + rng.Intn(3)
		scale := 32
		live := randomPackedGrid(rng, 1+rng.Intn(2*packedBlockCells), d, scale, 1.0)
		delta := randomPackedGrid(rng, 1+rng.Intn(packedBlockCells), d, scale, 1.0)
		// Make some delta masses negative enough to tombstone an
		// overlapping live cell, and some exactly cancelling.
		for j := 0; j < delta.Len(); j++ {
			switch rng.Intn(4) {
			case 0:
				if i := live.Find(delta.CellCoords(j)); i >= 0 {
					delta.Vals[j] = -live.Vals[i]
				}
			case 1:
				delta.Vals[j] = -delta.Vals[j]
			}
		}
		wantMerged, wantLR, wantDR := mergeFlat(t, live, delta)
		p := PackFlat(live)
		merged, lr, dr, err := MergePackedFlatCtx(context.Background(), p, delta)
		if err != nil {
			t.Fatal(err)
		}
		sameGrid(t, wantMerged, merged.Unpack(), "merged")
		for i := range wantLR {
			if lr[i] != wantLR[i] {
				t.Fatalf("iter %d: liveRemap[%d] = %d, want %d", iter, i, lr[i], wantLR[i])
			}
		}
		for i := range wantDR {
			if dr[i] != wantDR[i] {
				t.Fatalf("iter %d: deltaRemap[%d] = %d, want %d", iter, i, dr[i], wantDR[i])
			}
		}
	}
}

// TestPackedDecMassCompact exercises the in-place decrement and the
// tombstone sweep against the flat equivalent.
func TestPackedDecMassCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randomPackedGrid(rng, 2*packedBlockCells+17, 2, 128, 1.0)
	p := PackFlat(f)
	for k := 0; k < 5000; k++ {
		i := rng.Intn(f.Len())
		if f.Vals[i] <= 0 {
			continue
		}
		f.Vals[i]--
		if got, want := p.DecMassAt(i), f.Vals[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DecMassAt(%d) = %v, want %v", i, got, want)
		}
	}
	wantRemap := f.Compact()
	cp, remap := p.Compact()
	if wantRemap == nil {
		if remap != nil {
			t.Fatal("packed Compact saw tombstones the flat grid did not")
		}
		return
	}
	sameGrid(t, f, cp.Unpack(), "compacted")
	for i := range wantRemap {
		if remap[i] != wantRemap[i] {
			t.Fatalf("remap[%d] = %d, want %d", i, remap[i], wantRemap[i])
		}
	}
	if cp2, r2 := cp.Compact(); r2 != nil || cp2 != cp {
		t.Fatal("second Compact not a no-op")
	}
}

// TestPackedSnapshotRoundTrip writes AWG2 snapshots and restores them
// through the shared ReadSnapshot dispatch, including a tombstoned grid
// (swept on write) and an unserializable one.
func TestPackedSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 10; iter++ {
		intMass := 1.0
		if iter%2 == 1 {
			intMass = 0.5
		}
		f := randomPackedGrid(rng, 1+rng.Intn(2*packedBlockCells), 2, 256, intMass)
		for i := range f.Vals {
			if f.Vals[i] < 0 {
				f.Vals[i] = -f.Vals[i] // snapshots hold live cells only
			}
		}
		p := PackFlat(f)
		var buf bytes.Buffer
		if err := p.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if flat := len(encodeAWG1(f)); intMass == 1.0 && buf.Len() >= flat {
			t.Fatalf("iter %d: AWG2 snapshot %d bytes, not below AWG1 %d", iter, buf.Len(), flat)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameGrid(t, f, got.Unpack(), "AWG2 round trip")
	}

	// Tombstones are swept on write.
	g := NewFlat([]int{8, 8}, 3)
	g.Append([]uint16{1, 1}, 2)
	g.Append([]uint16{2, 2}, 0)
	g.Append([]uint16{3, 3}, 1)
	var buf bytes.Buffer
	if err := PackFlat(g).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Unpack(); got.Len() != 2 || got.Vals[0] != 2 || got.Vals[1] != 1 {
		t.Fatalf("tombstone sweep produced %d cells %v", got.Len(), got.Vals)
	}

	// Non-finite masses are rejected, as for AWG1.
	bad := NewFlat([]int{4}, 1)
	bad.Append([]uint16{1}, math.NaN())
	if err := PackFlat(bad).WriteSnapshot(&buf); err == nil {
		t.Fatal("NaN mass serialized")
	}
}

// TestPackedAncestorLabels checks block-parallel ancestor-label assignment
// from the packed base matches the flat implementation at several worker
// counts.
func TestPackedAncestorLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := randomPackedGrid(rng, packedBlockCells+777, 2, 256, 1.0)
	levels := 2
	// Build the kept grid: every distinct ancestor cell, half labelled.
	kept := NewFlat([]int{64, 64}, 0)
	prev := []uint16{0xffff, 0xffff}
	for i := 0; i < base.Len(); i++ {
		c := base.CellCoords(i)
		a := []uint16{c[0] >> uint(levels), c[1] >> uint(levels)}
		if cmpCoords(a, prev) != 0 {
			if kept.Len() == 0 || cmpCoords(kept.CellCoords(kept.Len()-1), a) < 0 {
				kept.Append(a, 1)
			}
			prev = a
		}
	}
	keptLabels := make([]int32, kept.Len())
	for i := range keptLabels {
		if i%2 == 0 {
			keptLabels[i] = int32(i / 2)
		} else {
			keptLabels[i] = -1
		}
	}
	want, err := base.AncestorLabelsCtx(context.Background(), nil, kept, levels, keptLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := PackFlat(base)
	for _, workers := range []int{1, 2, 7} {
		got, err := p.AncestorLabelsCtx(context.Background(), nil, kept, levels, keptLabels, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
