package grid

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randomCanonicalGrid builds a sparse canonical grid with clumped occupancy
// so components of many shapes and sizes appear.
func randomCanonicalGrid(t *testing.T, d, size, cells int, seed int64) *FlatGrid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(make([]int, d))
	for j := range g.Size {
		g.Size[j] = size
	}
	coords := make([]int, d)
	for len(g.Cells) < cells {
		// Seed a clump center, then a short random walk from it.
		for j := range coords {
			coords[j] = rng.Intn(size)
		}
		g.Cells[MakeKey(coords)] = 1
		for s := 0; s < 6; s++ {
			j := rng.Intn(d)
			coords[j] += rng.Intn(3) - 1
			if coords[j] < 0 {
				coords[j] = 0
			}
			if coords[j] >= size {
				coords[j] = size - 1
			}
			g.Cells[MakeKey(coords)] = 1
		}
	}
	return FlatFromGrid(g)
}

// mapComponents labels f's cells with the map-based BFS reference,
// Components, returning one label per cell index and the component count.
func mapComponents(t *testing.T, f *FlatGrid, conn Connectivity) ([]int32, int) {
	t.Helper()
	byKey, err := Components(f.ToGrid(), conn)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, f.Len())
	n := 0
	for i := range labels {
		l := byKey[f.KeyAt(i)]
		labels[i] = int32(l)
		n = max(n, l+1)
	}
	return labels, n
}

// TestComponentsFlatShardedMatchesSequential: the range-sharded labeling
// must reproduce the map BFS of Components exactly — labels and component
// count — for both connectivities across dimensions and worker counts,
// including grids above parallelCellCutoff, where the shards fan out.
func TestComponentsFlatShardedMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		d, size, cells int
		conn           Connectivity
	}{
		{1, 64, 40, Faces},
		{2, 64, 900, Faces},
		{2, 64, 900, Full},
		{3, 32, 1200, Faces},
		{3, 32, 1200, Full},
		{5, 8, 700, Faces},
		{3, 32, 3 * parallelCellCutoff, Faces},
		{3, 32, 3 * parallelCellCutoff, Full},
	} {
		f := randomCanonicalGrid(t, tc.d, tc.size, tc.cells, int64(tc.d*1000+tc.cells))
		want, wantN := mapComponents(t, f, tc.conn)
		for _, workers := range []int{1, 2, 3, 7} {
			got, gotN, err := ComponentsFlatAutoCtx(ctx, f, tc.conn, workers)
			if err != nil {
				t.Fatalf("d=%d conn=%v workers=%d: %v", tc.d, tc.conn, workers, err)
			}
			if gotN != wantN {
				t.Fatalf("d=%d conn=%v workers=%d: %d components, want %d", tc.d, tc.conn, workers, gotN, wantN)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d conn=%v workers=%d: label[%d] = %d, want %d",
						tc.d, tc.conn, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestComponentsFlatAuto: a canonical grid above the parallel cutoff is
// labeled like the map BFS; a grid out of canonical order is refused with
// ErrInvalidInput instead of being labeled wrong.
func TestComponentsFlatAuto(t *testing.T) {
	ctx := context.Background()
	f := randomCanonicalGrid(t, 2, 64, 3000, 5)
	want, wantN := mapComponents(t, f, Faces)
	got, gotN, err := ComponentsFlatAutoCtx(ctx, f, Faces, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("auto: %d components, want %d", gotN, wantN)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("auto: label[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// Scramble the order: the kernel must refuse the grid, at one worker
	// as well as many.
	d := f.Dim()
	swap := func(a, b int) {
		for j := 0; j < d; j++ {
			f.Coords[a*d+j], f.Coords[b*d+j] = f.Coords[b*d+j], f.Coords[a*d+j]
		}
		f.Vals[a], f.Vals[b] = f.Vals[b], f.Vals[a]
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		swap(rng.Intn(f.Len()), rng.Intn(f.Len()))
	}
	for _, workers := range []int{1, 4} {
		if _, _, err := ComponentsFlatAutoCtx(ctx, f, Faces, workers); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("scrambled, workers=%d: err %v, want ErrInvalidInput", workers, err)
		}
	}
}
