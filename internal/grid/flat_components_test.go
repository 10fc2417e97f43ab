package grid_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/oracle"
)

// randomCanonicalGrid builds a sparse canonical grid with clumped occupancy
// so components of many shapes and sizes appear.
func randomCanonicalGrid(t *testing.T, d, size, cells int, seed int64) *grid.FlatGrid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := oracle.New(make([]int, d))
	for j := range g.Size {
		g.Size[j] = size
	}
	coords := make([]int, d)
	for len(g.Cells) < cells {
		// Seed a clump center, then a short random walk from it.
		for j := range coords {
			coords[j] = rng.Intn(size)
		}
		g.Cells[oracle.MakeKey(coords)] = 1
		for s := 0; s < 6; s++ {
			j := rng.Intn(d)
			coords[j] += rng.Intn(3) - 1
			if coords[j] < 0 {
				coords[j] = 0
			}
			if coords[j] >= size {
				coords[j] = size - 1
			}
			g.Cells[oracle.MakeKey(coords)] = 1
		}
	}
	return oracle.FlatFromGrid(g)
}

// mapComponents labels f's cells with the map-based BFS reference,
// oracle.Components, returning one label per cell index and the component
// count.
func mapComponents(t *testing.T, f *grid.FlatGrid, conn grid.Connectivity) ([]int32, int) {
	t.Helper()
	byKey, err := oracle.Components(oracle.ToGrid(f), conn)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, f.Len())
	n := 0
	for i := range labels {
		l := byKey[oracle.CellKey(f, i)]
		labels[i] = int32(l)
		n = max(n, l+1)
	}
	return labels, n
}

// TestComponentsFlatShardedMatchesSequential: the range-sharded labeling
// must reproduce the map BFS of oracle.Components exactly — labels and
// component count — for both connectivities across dimensions and worker
// counts, including grids above the parallel cutoff, where the shards fan
// out.
func TestComponentsFlatShardedMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		d, size, cells int
		conn           grid.Connectivity
	}{
		{1, 64, 40, grid.Faces},
		{2, 64, 900, grid.Faces},
		{2, 64, 900, grid.Full},
		{3, 32, 1200, grid.Faces},
		{3, 32, 1200, grid.Full},
		{5, 8, 700, grid.Faces},
		{3, 32, 3 * grid.ParallelCellCutoff, grid.Faces},
		{3, 32, 3 * grid.ParallelCellCutoff, grid.Full},
	} {
		f := randomCanonicalGrid(t, tc.d, tc.size, tc.cells, int64(tc.d*1000+tc.cells))
		want, wantN := mapComponents(t, f, tc.conn)
		for _, workers := range []int{1, 2, 3, 7} {
			got, gotN, err := grid.ComponentsFlatAutoCtx(ctx, f, tc.conn, workers)
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
	want, wantN := mapComponents(t, f, grid.Faces)
	got, gotN, err := grid.ComponentsFlatAutoCtx(ctx, f, grid.Faces, 4)
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
		if _, _, err := grid.ComponentsFlatAutoCtx(ctx, f, grid.Faces, workers); !errors.Is(err, grid.ErrInvalidInput) {
			t.Fatalf("scrambled, workers=%d: err %v, want ErrInvalidInput", workers, err)
		}
	}
}
