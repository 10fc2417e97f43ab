package embed

import (
	"context"
	"fmt"
	"runtime"

	"adawave/internal/grid"
	"adawave/internal/linalg"
	"adawave/internal/pointset"
)

// maxFitSample bounds the number of rows the PCA fit reads. The sample is a
// deterministic stride over the dataset (rows 0, s, 2s, …), so fitting is
// O(sample·d²) + one Jacobi eigendecomposition regardless of n, and the
// same dataset always yields the same components — including through the
// out-of-core path, where the stride touches a bounded number of mapped
// pages instead of streaming every row.
const maxFitSample = 4096

// pcaEmbedder projects rows onto the top-K principal components of a
// sampled covariance matrix. Components are rows of comps (K×inDim,
// row-major), each sign-normalized so the coordinate of largest magnitude
// is positive — eigenvector sign is otherwise arbitrary, and an unstable
// sign would break checkpoint/refit reproducibility.
type pcaEmbedder struct {
	spec  Spec
	inDim int
	mean  []float64
	comps []float64
}

func (p *pcaEmbedder) Spec() Spec   { return p.spec }
func (p *pcaEmbedder) Fitted() bool { return p.inDim > 0 }
func (p *pcaEmbedder) InDim() int   { return p.inDim }
func (p *pcaEmbedder) OutDim() int  { return p.spec.K }

func (p *pcaEmbedder) Fit(ds *pointset.Dataset) error {
	return p.FitCtx(context.Background(), ds, runtime.GOMAXPROCS(0))
}

func (p *pcaEmbedder) FitCtx(ctx context.Context, ds *pointset.Dataset, workers int) error {
	d, err := checkFit(p.Fitted(), p.spec, ds)
	if err != nil {
		return err
	}
	step := 1
	if ds.N > maxFitSample {
		step = (ds.N + maxFitSample - 1) / maxFitSample
	}
	mean := make([]float64, d)
	m := 0
	for i := 0; i < ds.N; i += step {
		row := ds.Data[i*d : (i+1)*d]
		for c, v := range row {
			mean[c] += v
		}
		m++
	}
	for c := range mean {
		mean[c] /= float64(m)
	}
	cov, err := covariance(ctx, ds, mean, step, workers)
	if err != nil {
		return err
	}
	// Sample covariance (normalized by m, not m-1: the eigenvectors are
	// identical and m ≥ 1 always divides).
	inv := 1 / float64(m)
	for r := 0; r < d; r++ {
		for c := r; c < d; c++ {
			cov.Set(r, c, cov.At(r, c)*inv)
			cov.Set(c, r, cov.At(r, c))
		}
	}
	eig, err := linalg.JacobiEigen(cov, 0)
	if err != nil {
		return fmt.Errorf("%w: pca eigendecomposition: %v", grid.ErrInvalidInput, err)
	}
	// Eigenvalues come back ascending with column-wise eigenvectors; the
	// top-K components are the last K columns, emitted in descending
	// eigenvalue order.
	k := p.spec.K
	comps := make([]float64, k*d)
	for j := 0; j < k; j++ {
		col := d - 1 - j
		comp := comps[j*d : (j+1)*d]
		pivot, pivotAbs := 0, 0.0
		for r := 0; r < d; r++ {
			comp[r] = eig.Vectors.At(r, col)
			if a := abs(comp[r]); a > pivotAbs {
				pivot, pivotAbs = r, a
			}
		}
		if comp[pivot] < 0 {
			for r := range comp {
				comp[r] = -comp[r]
			}
		}
	}
	p.inDim, p.mean, p.comps = d, mean, comps
	return nil
}

// covariance accumulates the upper triangle of the unnormalized covariance
// of the sampled rows 0, step, 2·step, … about mean. Each entry sums its
// terms in sample order, so sharding by output row leaves it bit-identical
// for any worker count. Row r holds d−r entries; a shard takes whole pairs
// of rows (r, d−1−r), d+1 entries a pair, so contiguous ranges of pairs
// carry equal work. ctx is polled every blockRows samples of a shard.
func covariance(ctx context.Context, ds *pointset.Dataset, mean []float64, step, workers int) (*linalg.Matrix, error) {
	d := ds.D
	cov := linalg.NewMatrix(d, d)
	grid.ParallelRangesCtx(ctx, (d+1)/2, workers, func(_, lo, hi int) {
		centered := make([]float64, d)
		for s, i := 0, 0; i < ds.N; s, i = s+1, i+step {
			if s%blockRows == 0 && ctx.Err() != nil {
				return
			}
			center(centered, ds.Data[i*d:(i+1)*d], mean)
			for r := lo; r < hi; r++ {
				addScaled(cov.Row(r)[r:], centered[r], centered[r:])
				if q := d - 1 - r; q != r {
					addScaled(cov.Row(q)[q:], centered[q], centered[q:])
				}
			}
		}
	})
	if err := grid.CtxErr(ctx); err != nil {
		return nil, err
	}
	return cov, nil
}

// addScaled adds v·x[c] to dst[c] for every c < len(x).
func addScaled(dst []float64, v float64, x []float64) {
	dst = dst[:len(x)]
	for c, xc := range x {
		dst[c] += v * xc
	}
}

func (p *pcaEmbedder) Transform(ds *pointset.Dataset) (*pointset.Dataset, error) {
	return p.TransformCtx(context.Background(), ds, runtime.GOMAXPROCS(0))
}

func (p *pcaEmbedder) TransformCtx(ctx context.Context, ds *pointset.Dataset, workers int) (*pointset.Dataset, error) {
	if err := checkTransform(p.Fitted(), p.inDim, ds); err != nil {
		return nil, err
	}
	return project(ctx, ds, p.mean, p.comps, p.spec.K, workers)
}

func (p *pcaEmbedder) MarshalBinary() ([]byte, error) {
	if !p.Fitted() {
		return nil, fmt.Errorf("%w: cannot marshal unfitted embedder", grid.ErrInvalidInput)
	}
	return marshalFrame(kindCodePCA, p.spec, p.inDim, p.mean, p.comps), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
