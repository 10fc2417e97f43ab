// Package embed provides the pluggable embedding front-end of the
// clustering pipeline: fitted linear transforms that project raw rows into
// a lower-dimensional space before grid quantization. Two embedders are
// implemented — PCA on top of the internal/linalg Jacobi eigensolver (fit
// on a bounded deterministic sample, project all rows) and a seeded sparse
// random projection (Achlioptas-style, for d ≫ 20 where covariance
// eigendecomposition is wasteful). Both are deterministic: the same spec
// fitted on the same rows always produces the same projection, so labels
// computed downstream are reproducible bit for bit, and a fitted embedder
// round-trips through MarshalBinary/Unmarshal without refitting.
package embed

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// KindPCA and KindRP name the two embedder kinds in a Spec.
const (
	KindPCA = "pca"
	KindRP  = "rp"
)

// maxOutDim bounds the projected dimensionality; it matches the checkpoint
// reader's dimension cap so a fitted embedder always persists.
const maxOutDim = 1 << 10

// Spec declares an embedding: which transform, how many output dimensions,
// and (for the random projection) the seed of the sparse matrix. The zero
// Spec means "no embedding". Spec is a small comparable value so it embeds
// in core.Config and renders canonically into config fingerprints.
type Spec struct {
	// Kind is KindPCA, KindRP, or "" for no embedding.
	Kind string
	// K is the projected dimensionality (1 ≤ K ≤ input dim).
	K int
	// Seed seeds the sparse random-projection matrix (KindRP only).
	Seed int64
}

// Enabled reports whether the spec names an embedding at all.
func (s Spec) Enabled() bool { return s.Kind != "" }

// String renders the spec canonically — "pca(k=8)", "rp(k=16,seed=42)", or
// "" when disabled. The rendering is part of the persisted config
// fingerprint, so it must stay stable across releases; ParseSpec inverts it.
func (s Spec) String() string {
	switch s.Kind {
	case "":
		return ""
	case KindRP:
		return fmt.Sprintf("rp(k=%d,seed=%d)", s.K, s.Seed)
	default:
		return fmt.Sprintf("%s(k=%d)", s.Kind, s.K)
	}
}

// Validate checks the spec independent of any dataset (the input-dimension
// bound is checked at fit time).
func (s Spec) Validate() error {
	switch s.Kind {
	case "":
		return nil
	case KindPCA, KindRP:
		if s.K < 1 || s.K > maxOutDim {
			return fmt.Errorf("%w: embedding k %d out of range [1, %d]", grid.ErrInvalidInput, s.K, maxOutDim)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown embedding kind %q", grid.ErrInvalidInput, s.Kind)
	}
}

// ParseSpec inverts Spec.String. The empty string parses to the disabled
// spec. It exists so a config fingerprint (or an on-disk config.json)
// rebuilds the exact Spec it was rendered from.
func ParseSpec(in string) (Spec, error) {
	if in == "" {
		return Spec{}, nil
	}
	open := strings.IndexByte(in, '(')
	if open < 0 || !strings.HasSuffix(in, ")") {
		return Spec{}, fmt.Errorf("%w: malformed embedding spec %q", grid.ErrInvalidInput, in)
	}
	sp := Spec{Kind: in[:open]}
	for _, part := range strings.Split(in[open+1:len(in)-1], ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("%w: malformed embedding spec %q", grid.ErrInvalidInput, in)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("%w: malformed embedding spec %q", grid.ErrInvalidInput, in)
		}
		switch key {
		case "k":
			sp.K = int(n)
		case "seed":
			sp.Seed = n
		default:
			return Spec{}, fmt.Errorf("%w: malformed embedding spec %q", grid.ErrInvalidInput, in)
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	if !sp.Enabled() {
		return Spec{}, fmt.Errorf("%w: malformed embedding spec %q", grid.ErrInvalidInput, in)
	}
	return sp, nil
}

// Embedder is a fitted linear projection. FitCtx learns the transform's
// parameters from a dataset (once — refitting an already fitted embedder is
// an error, so a streaming session's projection can never drift),
// TransformCtx projects rows with the frozen parameters, and MarshalBinary
// serializes the fitted state for checkpoints. Both ctx forms shard their
// row work over at most workers ranges of the context's worker pool (see
// grid.ParallelRangesCtx) and give the same bits for every worker count; a
// cancelled call returns the taxonomy error (grid.CtxErr) and changes
// nothing. Implementations are deterministic and safe for concurrent
// Transform calls after Fit.
type Embedder interface {
	// Spec returns the declaration this embedder was built from.
	Spec() Spec
	// Fitted reports whether a fit has completed.
	Fitted() bool
	// FitCtx learns the projection parameters from ds. The input
	// dimensionality is adopted from ds; K must not exceed it. A
	// cancelled fit leaves the embedder unfitted.
	FitCtx(ctx context.Context, ds *pointset.Dataset, workers int) error
	// TransformCtx projects every row of ds into a fresh K-dimensional
	// dataset. ds.D must equal InDim.
	TransformCtx(ctx context.Context, ds *pointset.Dataset, workers int) (*pointset.Dataset, error)
	// Fit is FitCtx with context.Background and GOMAXPROCS workers.
	Fit(ds *pointset.Dataset) error
	// Transform is TransformCtx with context.Background and GOMAXPROCS
	// workers.
	Transform(ds *pointset.Dataset) (*pointset.Dataset, error)
	// InDim returns the fitted input dimensionality (0 before Fit).
	InDim() int
	// OutDim returns the projected dimensionality K.
	OutDim() int
	// MarshalBinary serializes the fitted parameters; Unmarshal inverts
	// it without refitting. Fails before Fit.
	MarshalBinary() ([]byte, error)
}

// New builds an unfitted embedder from a spec. The disabled spec is an
// error: callers gate on Spec.Enabled first.
func New(s Spec) (Embedder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindPCA:
		return &pcaEmbedder{spec: s}, nil
	case KindRP:
		return &rpEmbedder{spec: s}, nil
	default:
		return nil, fmt.Errorf("%w: no embedding to construct", grid.ErrInvalidInput)
	}
}

// Binary layout of a fitted embedder ("AWE1" frame):
//
//	| "AWE1" | kind u8 | k u32 | inDim u32 | seed i64 | params … f64 |
//
// params is mean (inDim) followed by the k×inDim component matrix for PCA,
// and the k×inDim projection matrix for the random projection (stored, not
// regenerated, so a checkpoint never depends on the PRNG implementation).
const embMagic = "AWE1"

const (
	kindCodePCA = 1
	kindCodeRP  = 2
)

func marshalFrame(kindCode byte, sp Spec, inDim int, params ...[]float64) []byte {
	n := 0
	for _, p := range params {
		n += len(p)
	}
	out := make([]byte, 0, len(embMagic)+1+4+4+8+8*n)
	out = append(out, embMagic...)
	out = append(out, kindCode)
	out = binary.LittleEndian.AppendUint32(out, uint32(sp.K))
	out = binary.LittleEndian.AppendUint32(out, uint32(inDim))
	out = binary.LittleEndian.AppendUint64(out, uint64(sp.Seed))
	for _, p := range params {
		for _, v := range p {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// Unmarshal rebuilds a fitted embedder from MarshalBinary output. The
// result transforms rows identically to the embedder that produced the
// bytes — no refit, no PRNG replay.
func Unmarshal(b []byte) (Embedder, error) {
	if len(b) < len(embMagic)+1+4+4+8 || string(b[:len(embMagic)]) != embMagic {
		return nil, fmt.Errorf("%w: bad embedder frame", grid.ErrInvalidInput)
	}
	kindCode := b[len(embMagic)]
	rest := b[len(embMagic)+1:]
	k := int(binary.LittleEndian.Uint32(rest))
	inDim := int(binary.LittleEndian.Uint32(rest[4:]))
	seed := int64(binary.LittleEndian.Uint64(rest[8:]))
	rest = rest[16:]
	if k < 1 || k > maxOutDim || inDim < k || inDim > maxOutDim {
		return nil, fmt.Errorf("%w: embedder frame dims k=%d inDim=%d", grid.ErrInvalidInput, k, inDim)
	}
	readVec := func(n int) ([]float64, error) {
		if len(rest) < 8*n {
			return nil, fmt.Errorf("%w: truncated embedder frame", grid.ErrInvalidInput)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		rest = rest[8*n:]
		return v, nil
	}
	switch kindCode {
	case kindCodePCA:
		mean, err := readVec(inDim)
		if err != nil {
			return nil, err
		}
		comps, err := readVec(k * inDim)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: oversized embedder frame", grid.ErrInvalidInput)
		}
		return &pcaEmbedder{spec: Spec{Kind: KindPCA, K: k}, inDim: inDim, mean: mean, comps: comps}, nil
	case kindCodeRP:
		mat, err := readVec(k * inDim)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: oversized embedder frame", grid.ErrInvalidInput)
		}
		return &rpEmbedder{spec: Spec{Kind: KindRP, K: k, Seed: seed}, inDim: inDim, mat: mat}, nil
	default:
		return nil, fmt.Errorf("%w: unknown embedder kind code %d", grid.ErrInvalidInput, kindCode)
	}
}

// checkFit validates the shared Fit preconditions and returns the input
// dimensionality to adopt.
func checkFit(fitted bool, sp Spec, ds *pointset.Dataset) (int, error) {
	if fitted {
		return 0, fmt.Errorf("%w: embedder already fitted", grid.ErrInvalidInput)
	}
	if ds == nil || ds.N == 0 {
		return 0, fmt.Errorf("%w: cannot fit %s embedding on an empty dataset", grid.ErrInvalidInput, sp.Kind)
	}
	if ds.D > maxOutDim {
		return 0, fmt.Errorf("%w: input dimension %d exceeds %d", grid.ErrInvalidInput, ds.D, maxOutDim)
	}
	if sp.K > ds.D {
		return 0, fmt.Errorf("%w: embedding k %d exceeds input dimension %d", grid.ErrInvalidInput, sp.K, ds.D)
	}
	return ds.D, nil
}

// checkTransform validates the shared Transform preconditions.
func checkTransform(fitted bool, inDim int, ds *pointset.Dataset) error {
	if !fitted {
		return fmt.Errorf("%w: embedder not fitted", grid.ErrInvalidInput)
	}
	if ds == nil {
		return fmt.Errorf("%w: nil dataset", grid.ErrInvalidInput)
	}
	if ds.N > 0 && ds.D != inDim {
		return fmt.Errorf("%w: dataset dimension %d, embedder fitted on %d", grid.ErrInvalidInput, ds.D, inDim)
	}
	return nil
}

// blockRows is how many rows a projection or covariance shard runs between
// ctx polls; it is also the fewest rows worth a projection shard of their
// own.
const blockRows = 1024

// project applies a k×inDim row-major matrix to every (optionally
// mean-centered) row of ds. It is the single projection kernel both
// embedders share, so "embedding inside the pipeline" and "manual
// projection by the caller" are the same float operations in the same
// order — the bit-identity equivalence the tests assert.
//
// Rows are sharded over at most workers ranges through
// grid.ParallelRangesCtx. Each row is centered once into a per-shard
// scratch row, then the outputs are accumulated four at a time in one pass
// over its coordinates (the remainder one at a time). Every output still
// starts at 0 and sums its terms in coordinate order, so the result is
// bit-identical for any worker count. ctx is polled every blockRows
// rows of a shard; a cancelled call returns the taxonomy error and no
// dataset.
func project(ctx context.Context, ds *pointset.Dataset, mean, mat []float64, k, workers int) (*pointset.Dataset, error) {
	n, d := ds.N, ds.D
	out := pointset.New(k, n)
	out.N = n
	out.Data = out.Data[:n*k]
	workers = min(workers, (n+blockRows-1)/blockRows)
	grid.ParallelRangesCtx(ctx, n, workers, func(_, lo, hi int) {
		var centered []float64
		if mean != nil {
			centered = make([]float64, d)
		}
		for blo := lo; blo < hi; blo += blockRows {
			if ctx.Err() != nil {
				return
			}
			bhi := min(blo+blockRows, hi)
			for i := blo; i < bhi; i++ {
				x := ds.Data[i*d : (i+1)*d]
				if mean != nil {
					center(centered, x, mean)
					x = centered
				}
				projectRow(out.Data[i*k:(i+1)*k], x, mat)
			}
		}
	})
	if err := grid.CtxErr(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// center sets dst[c] to x[c] − mean[c] for every c < len(mean).
func center(dst, x, mean []float64) {
	dst, x = dst[:len(mean)], x[:len(mean)]
	for c, v := range mean {
		dst[c] = x[c] - v
	}
}

// projectRow sets dst[j] to the dot product of x with row j of the
// len(dst)×len(x) matrix mat, summing each product chain from 0 in x order.
func projectRow(dst, x, mat []float64) {
	d, k := len(x), len(dst)
	j := 0
	for ; j+4 <= k; j += 4 {
		m0 := mat[j*d:][:d]
		m1 := mat[(j+1)*d:][:d]
		m2 := mat[(j+2)*d:][:d]
		m3 := mat[(j+3)*d:][:d]
		var a0, a1, a2, a3 float64
		for c, v := range x {
			a0 += v * m0[c]
			a1 += v * m1[c]
			a2 += v * m2[c]
			a3 += v * m3[c]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
	}
	for ; j < k; j++ {
		m := mat[j*d:][:d]
		var a float64
		for c, v := range x {
			a += v * m[c]
		}
		dst[j] = a
	}
}
