package embed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/pointset"
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

// spreadRows returns n rows of d coordinates whose magnitudes span six
// decades, so any change in summation order shows in the low bits. Row 3
// (when present) is all negative zeros.
func spreadRows(n, d int, seed int64) *pointset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := pointset.New(d, n)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			if i == 3 {
				row[c] = math.Copysign(0, -1)
			}
		}
		ds.AppendRow(row)
	}
	return ds
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestProjectMatchesReference pins the sharded kernel to the serial loop it
// replaced, bit for bit, for a PCA (with mean) and a random projection (no
// mean) at every output width class — below, at and above one group of four
// accumulators — across worker counts and row counts that no shard or poll
// block divides evenly.
func TestProjectMatchesReference(t *testing.T) {
	const d = 11
	fitRows := spreadRows(300, d, 1)
	for _, k := range []int{1, 3, 4, 5, 8} {
		for _, sp := range []Spec{{Kind: KindPCA, K: k}, {Kind: KindRP, K: k, Seed: 5}} {
			e, err := New(sp)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Fit(fitRows); err != nil {
				t.Fatal(err)
			}
			var mean, mat []float64
			switch p := e.(type) {
			case *pcaEmbedder:
				mean, mat = p.mean, p.comps
			case *rpEmbedder:
				mat = p.mat
			}
			for _, n := range []int{0, 1, 7, 4097, 10007} {
				ds := spreadRows(n, d, int64(n)+2)
				want := projectRef(ds, mean, mat, k)
				for workers := 1; workers <= 8; workers++ {
					got, err := project(context.Background(), ds, mean, mat, k, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got.N != n || got.D != k || !bitsEqual(got.Data, want.Data) {
						t.Fatalf("%s n=%d workers=%d: projection differs from the reference", sp, n, workers)
					}
				}
			}
		}
		// Negative-zero rows through a positive matrix, about a +0 mean and
		// about none: every product is −0, so only a sum that starts from
		// +0, as the reference's does, gives +0.
		ds := spreadRows(4, d, 0)
		ones := make([]float64, k*d)
		for i := range ones {
			ones[i] = 1
		}
		for _, mean := range [][]float64{nil, make([]float64, d)} {
			want := projectRef(ds, mean, ones, k)
			got, err := project(context.Background(), ds, mean, ones, k, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got.Data, want.Data) {
				t.Fatalf("k=%d mean=%v: signed zeros differ from the reference", k, mean != nil)
			}
		}
	}
}

// TestPCAFitSameBytesForAnyWorkers: the covariance shards by output row, so
// a fit at any worker count marshals to the bytes of a one-worker fit. The
// dimensions give an odd and an even number of row pairs, and the 10007
// rows sample at stride 3 into 3336 rows, which no poll block divides.
func TestPCAFitSameBytesForAnyWorkers(t *testing.T) {
	for _, d := range []int{11, 64} {
		ds := spreadRows(10007, d, int64(d))
		fit := func(workers int) []byte {
			e, _ := New(Spec{Kind: KindPCA, K: 4})
			if err := e.FitCtx(context.Background(), ds, workers); err != nil {
				t.Fatal(err)
			}
			b, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		want := fit(1)
		for workers := 2; workers <= 8; workers++ {
			if !bytes.Equal(fit(workers), want) {
				t.Fatalf("d=%d workers=%d: fit differs from the one-worker fit", d, workers)
			}
		}
	}
}

// checkCanceled fails unless err is the taxonomy's cancellation error.
func checkCanceled(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, grid.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: got %v, want ErrCanceled wrapping context.Canceled", what, err)
	}
}

// TestTransformCtxCancel lands a cancel at every poll point of a projection
// in turn: each cancelled call returns the taxonomy error and no dataset,
// and the first call that completes equals an uncancelled one.
func TestTransformCtxCancel(t *testing.T) {
	ds := spreadRows(10007, 11, 3)
	for _, sp := range []Spec{{Kind: KindPCA, K: 5}, {Kind: KindRP, K: 5, Seed: 2}} {
		e, _ := New(sp)
		if err := e.Fit(ds); err != nil {
			t.Fatal(err)
		}
		want, err := e.Transform(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			cancelled := 0
			for n := 0; ; n++ {
				got, err := e.TransformCtx(cancelAfterPolls(n), ds, workers)
				if err == nil {
					if !bitsEqual(got.Data, want.Data) {
						t.Fatalf("%s workers=%d polls=%d: projection differs from the uncancelled one", sp, workers, n)
					}
					break
				}
				what := fmt.Sprintf("%s workers=%d polls=%d", sp, workers, n)
				checkCanceled(t, what, err)
				if got != nil {
					t.Fatalf("%s: cancelled projection returned a dataset", what)
				}
				cancelled++
			}
			// One poll per 1024-row block of each shard, plus the final one.
			if min := (10007+blockRows-1)/blockRows + 1; cancelled < min {
				t.Fatalf("%s workers=%d: only %d poll points cancelled, want ≥ %d", sp, workers, cancelled, min)
			}
		}
	}
}

// TestFitCtxCancel lands a cancel at every poll point of a fit in turn: each
// cancelled fit returns the taxonomy error and leaves the embedder
// unfitted, so fitting it again gives the bytes of a never-cancelled fit.
func TestFitCtxCancel(t *testing.T) {
	ds := spreadRows(10007, 11, 4)
	for _, sp := range []Spec{{Kind: KindPCA, K: 3}, {Kind: KindRP, K: 3, Seed: 8}} {
		ref, _ := New(sp)
		if err := ref.Fit(ds); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.MarshalBinary()
		for _, workers := range []int{1, 3} {
			cancelled := 0
			for n := 0; ; n++ {
				e, _ := New(sp)
				err := e.FitCtx(cancelAfterPolls(n), ds, workers)
				if err == nil {
					if got, _ := e.MarshalBinary(); !bytes.Equal(got, want) {
						t.Fatalf("%s workers=%d polls=%d: fit differs from the uncancelled one", sp, workers, n)
					}
					break
				}
				what := fmt.Sprintf("%s workers=%d polls=%d", sp, workers, n)
				checkCanceled(t, what, err)
				if e.Fitted() {
					t.Fatalf("%s: cancelled fit left the embedder fitted", what)
				}
				if err := e.FitCtx(context.Background(), ds, workers); err != nil {
					t.Fatalf("%s: refit after cancel: %v", what, err)
				}
				if got, _ := e.MarshalBinary(); !bytes.Equal(got, want) {
					t.Fatalf("%s: refit after cancel differs from the uncancelled fit", what)
				}
				cancelled++
			}
			if cancelled == 0 {
				t.Fatalf("%s workers=%d: no poll point cancelled", sp, workers)
			}
		}
	}
}
