package embed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// rpEmbedder projects rows through a sparse random matrix in the style of
// Achlioptas (2003): entries are ±√(3/K) with probability 1/6 each and 0
// with probability 2/3, and the Johnson–Lindenstrauss distance-preservation
// guarantee holds. The projection runs through the dense kernel PCA uses,
// which multiplies every entry, zeros included. Skipping the zeros would
// not give the same rows: Inf·0 is NaN, so today a row with a non-finite
// coordinate projects to a non-finite row and quantization rejects it,
// while a kernel that skipped zeros could drop that coordinate and accept
// the row. The matrix is generated once at fit time from (Seed, inDim, K)
// via math/rand's deterministic generator and then stored verbatim in
// checkpoints, so a restored session projects identically even if the
// generator ever changed.
type rpEmbedder struct {
	spec  Spec
	inDim int
	mat   []float64 // K×inDim row-major
}

func (p *rpEmbedder) Spec() Spec   { return p.spec }
func (p *rpEmbedder) Fitted() bool { return p.inDim > 0 }
func (p *rpEmbedder) InDim() int   { return p.inDim }
func (p *rpEmbedder) OutDim() int  { return p.spec.K }

func (p *rpEmbedder) Fit(ds *pointset.Dataset) error {
	return p.FitCtx(context.Background(), ds, runtime.GOMAXPROCS(0))
}

// FitCtx draws the matrix. It reads nothing of ds but its shape, so it
// polls ctx once and uses no workers.
func (p *rpEmbedder) FitCtx(ctx context.Context, ds *pointset.Dataset, _ int) error {
	d, err := checkFit(p.Fitted(), p.spec, ds)
	if err != nil {
		return err
	}
	if err := grid.CtxErr(ctx); err != nil {
		return err
	}
	k := p.spec.K
	scale := math.Sqrt(3 / float64(k))
	rng := rand.New(rand.NewSource(p.spec.Seed))
	mat := make([]float64, k*d)
	for i := range mat {
		switch rng.Intn(6) {
		case 0:
			mat[i] = scale
		case 1:
			mat[i] = -scale
		}
	}
	p.inDim, p.mat = d, mat
	return nil
}

func (p *rpEmbedder) Transform(ds *pointset.Dataset) (*pointset.Dataset, error) {
	return p.TransformCtx(context.Background(), ds, runtime.GOMAXPROCS(0))
}

func (p *rpEmbedder) TransformCtx(ctx context.Context, ds *pointset.Dataset, workers int) (*pointset.Dataset, error) {
	if err := checkTransform(p.Fitted(), p.inDim, ds); err != nil {
		return nil, err
	}
	return project(ctx, ds, nil, p.mat, p.spec.K, workers)
}

func (p *rpEmbedder) MarshalBinary() ([]byte, error) {
	if !p.Fitted() {
		return nil, fmt.Errorf("%w: cannot marshal unfitted embedder", grid.ErrInvalidInput)
	}
	return marshalFrame(kindCodeRP, p.spec, p.inDim, p.mat), nil
}
