package grid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"adawave/internal/datasets"
	"adawave/internal/pointset"
)

// TestMergeCellsKWay checks the merge kernel against a map-based reference
// for k = 1…8 inputs mixing the three cursor sources — flat grids, retained
// packed grids and spilled AWG2 runs — some spanning several blocks, with
// signed float masses and exact cancellations, into both sinks. The
// reference sums each cell in input order and drops merged masses ≤ 0;
// the kernel must match it cell for cell, mass for mass (by bits) and in
// every remap entry.
func TestMergeCellsKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dir := t.TempDir()
	for k := 1; k <= 8; k++ {
		for round := 0; round < 3; round++ {
			d := 1 + rng.Intn(3)
			scale := map[int]int{1: 1 << 14, 2: 128, 3: 32}[d]
			grids := make([]*FlatGrid, k)
			kinds := make([]int, k)
			running := map[string]float64{}
			for s := range grids {
				kinds[s] = rng.Intn(3) // 0 flat, 1 packed, 2 spilled
				n := rng.Intn(300)
				if rng.Intn(3) == 0 {
					n = packedBlockCells + rng.Intn(2*packedBlockCells)
				}
				g := randomPackedGrid(rng, max(n, 1), d, scale, 0.5)
				if n == 0 {
					g = NewFlat(g.Size, 0)
				}
				for i := range g.Vals {
					key := string(keyBytes(g.CellCoords(i)))
					switch {
					case kinds[s] == 2:
						// Spill runs are snapshots: live cells only.
						g.Vals[i] = math.Abs(g.Vals[i])
					case running[key] != 0 && rng.Intn(4) == 0:
						g.Vals[i] = -running[key] // exact cancellation
					}
					running[key] += g.Vals[i]
				}
				grids[s] = g
			}

			srcs := make([]*cellCursor, k)
			for s, g := range grids {
				switch kinds[s] {
				case 0:
					srcs[s] = flatCursor(g)
				case 1:
					srcs[s] = packedCursor(PackFlat(g))
				default:
					path := filepath.Join(dir, fmt.Sprintf("k%d-r%d-s%d.spill", k, round, s))
					writeSpillRun(t, path, g)
					c, err := openSpillCursor(path, d, g.Len())
					if err != nil {
						t.Fatal(err)
					}
					defer c.close()
					srcs[s] = c
				}
			}
			var got *FlatGrid
			var remap [][]int32
			var err error
			if round%2 == 0 {
				got = NewFlat(grids[0].Size, 0)
				remap, err = mergeCells(context.Background(), srcs, got)
			} else {
				bld := NewPackedBuilder(grids[0].Size, -1)
				remap, err = mergeCells(context.Background(), srcs, bld)
				got = bld.Grid().Unpack()
			}
			if err != nil {
				t.Fatal(err)
			}

			want, wantRemap := referenceMerge(grids)
			label := fmt.Sprintf("k=%d round %d kinds %v", k, round, kinds)
			sameGrid(t, want, got, label)
			for s := range grids {
				if len(remap[s]) != len(wantRemap[s]) {
					t.Fatalf("%s: remap[%d] has %d entries, want %d", label, s, len(remap[s]), len(wantRemap[s]))
				}
				for j, r := range wantRemap[s] {
					if remap[s][j] != r {
						t.Fatalf("%s: remap[%d][%d] = %d, want %d", label, s, j, remap[s][j], r)
					}
				}
			}
		}
	}
}

// referenceMerge is the map-based model of mergeCells: every cell's mass is
// summed in input order, cells are emitted in canonical order, and a
// merged mass ≤ 0 is dropped with −1 in each contributing remap entry.
func referenceMerge(grids []*FlatGrid) (*FlatGrid, [][]int32) {
	type contrib struct{ src, idx int }
	type cell struct {
		coords []uint16
		mass   float64
		from   []contrib
	}
	cells := map[string]*cell{}
	remap := make([][]int32, len(grids))
	for s, g := range grids {
		remap[s] = make([]int32, g.Len())
		for i := 0; i < g.Len(); i++ {
			key := string(keyBytes(g.CellCoords(i)))
			c := cells[key]
			if c == nil {
				c = &cell{coords: g.CellCoords(i)}
				cells[key] = c
			}
			c.mass += g.Vals[i]
			c.from = append(c.from, contrib{s, i})
		}
	}
	keys := make([]string, 0, len(cells))
	for key := range cells {
		keys = append(keys, key)
	}
	sort.Strings(keys) // keyBytes is big-endian, so byte order is canonical order
	out := NewFlat(grids[0].Size, 0)
	for _, key := range keys {
		c := cells[key]
		at := int32(-1)
		if c.mass > 0 {
			at = int32(out.Len())
			out.Append(c.coords, c.mass)
		}
		for _, f := range c.from {
			remap[f.src][f.idx] = at
		}
	}
	return out, remap
}

// writeSpillRun writes g to path as the external sort spills a run.
func writeSpillRun(t *testing.T, path string, g *FlatGrid) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = PackFlat(g).WriteSnapshot(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMergeThroughput measures the merge kernel on flat inputs alone:
// a 1 % delta grid merged with the live grid of 50k Fig. 9 road-network
// points at scale 128, both flat, into a flat sink, reported in cells/s
// over the cells both inputs carry. The packed-input series of the same
// kernel, the Session fold, is the root package's
// BenchmarkMergeThroughputPacked.
func BenchmarkMergeThroughput(b *testing.B) {
	ctx := context.Background()
	warm := datasets.Roadmap(50000, 1).Flat()
	delta := &pointset.Dataset{Data: warm.Data[:warm.N/100*warm.D], N: warm.N / 100, D: warm.D}
	q, err := NewQuantizerDatasetCtx(ctx, warm, 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	live, _ := quantizeDataset(b, q, warm, 1)
	dg, _ := quantizeDataset(b, q, delta, 1)
	cells := live.Len() + dg.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := NewFlat(live.Size, cells)
		if _, err := mergeCells(ctx, []*cellCursor{flatCursor(live), flatCursor(dg)}, merged); err != nil {
			b.Fatal(err)
		}
		if merged.Len() < live.Len() {
			b.Fatal("merge lost cells")
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
