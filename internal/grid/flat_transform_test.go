package grid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"adawave/internal/wavelet"
)

// pollCancelCtx is a context whose Err reports context.Canceled from its
// (n+1)-th poll on, so a test can land a cancellation at every poll point
// of a computation in turn.
type pollCancelCtx struct {
	context.Context
	left atomic.Int64
}

func cancelAfterPolls(n int) *pollCancelCtx {
	c := &pollCancelCtx{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

func (c *pollCancelCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// randomFlat builds a canonical grid from n random cell draws at the given
// sizes with small-integer masses; repeated draws of a cell add up.
func randomFlat(sizes []int, n int, seed int64) *FlatGrid {
	rng := rand.New(rand.NewSource(seed))
	f := NewFlat(sizes, n)
	coords := make([]uint16, len(sizes))
	for i := 0; i < n; i++ {
		for j, s := range sizes {
			coords[j] = uint16(rng.Intn(s))
		}
		f.Append(coords, float64(1+rng.Intn(4)))
	}
	f.SortCanonical()
	d, w := f.Dim(), 0
	for i := 0; i < f.Len(); i++ {
		if w > 0 && cmpCoords(f.CellCoords(w-1), f.CellCoords(i)) == 0 {
			f.Vals[w-1] += f.Vals[i]
			continue
		}
		copy(f.Coords[w*d:(w+1)*d], f.CellCoords(i))
		f.Vals[w] = f.Vals[i]
		w++
	}
	f.Coords, f.Vals = f.Coords[:w*d], f.Vals[:w]
	return f
}

func flatBitsEqual(a, b *FlatGrid) bool {
	return slices.Equal(a.Size, b.Size) && slices.Equal(a.Coords, b.Coords) &&
		slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestTransformLevelsFlatCancel cancels a two-level transform after each
// number of ctx polls in turn, until one call completes. Every cancelled
// call must report ErrCanceled with no grids, return every pooled buffer
// and grid it took, and leave the input byte-identical; the completed call
// must equal an uncancelled run. After every cancelled call a different
// grid, transformed at one and at three workers, must equal a fresh run
// bit for bit: a pooled dense suffix table left dirty would corrupt it.
func TestTransformLevelsFlatCancel(t *testing.T) {
	in := randomFlat([]int{64, 48, 40}, 6*transformUnitCells, 9)
	pristine := in.Clone()
	basis := wavelet.CDF22()
	want, err := TransformLevelsFlatCtx(context.Background(), in, basis, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := randomFlat([]int{40, 32, 56}, 4*transformUnitCells, 10)
	otherWant, err := TransformLevelsFlatCtx(context.Background(), other, basis, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		cancelled := 0
		for n := 0; ; n++ {
			before := pooledOut.Load()
			got, err := TransformLevelsFlatCtx(cancelAfterPolls(n), in, basis, 2, workers)
			if out := pooledOut.Load(); out != before {
				t.Fatalf("workers=%d polls=%d: %d pooled buffers not returned", workers, n, out-before)
			}
			if !flatBitsEqual(in, pristine) {
				t.Fatalf("workers=%d polls=%d: input grid modified", workers, n)
			}
			if err == nil {
				for l := range want {
					if !flatBitsEqual(got[l], want[l]) {
						t.Fatalf("workers=%d polls=%d: level %d differs from the uncancelled run", workers, n, l+1)
					}
				}
				break
			}
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("workers=%d polls=%d: got %d grids, err %v; want none and ErrCanceled", workers, n, len(got), err)
			}
			cancelled++
			for _, w := range []int{1, 3} {
				got, err := TransformLevelsFlatCtx(context.Background(), other, basis, 2, w)
				if err != nil {
					t.Fatal(err)
				}
				for l := range otherWant {
					if !flatBitsEqual(got[l], otherWant[l]) {
						t.Fatalf("workers=%d polls=%d: a later transform at workers=%d differs from a fresh run at level %d", workers, n, w, l+1)
					}
				}
			}
		}
		// Two levels of three dimensions, each polled on entry, once per
		// work unit and after its shards: far more than six polls.
		if cancelled < 12 {
			t.Fatalf("workers=%d: only %d poll points cancelled", workers, cancelled)
		}
	}
}
