package adawave

import (
	"adawave/internal/core"
	"adawave/internal/grid"
)

// Connectivity selects the neighbor relation used when labeling connected
// components of the thresholded grid.
type Connectivity = grid.Connectivity

// Connectivity values: Faces connects cells differing by ±1 in exactly one
// dimension (2·d neighbors, the default); Full connects cells differing by
// at most 1 in every dimension (3^d−1 neighbors, limited to 8 dimensions).
const (
	Faces = grid.Faces
	Full  = grid.Full
)

// An Option configures a Clusterer built by New (and, through
// Clusterer.NewSession / Clusterer.RestoreSession, every streaming session
// that shares its engine). Options layer over DefaultConfig, so zero options
// reproduce the paper's parameter-free defaults exactly; WithConfig replaces
// the whole base configuration.
type Option func(*settings)

// settings is the accumulated option state: the Config the engine validates
// plus the facade-level worker count.
type settings struct {
	cfg     Config
	workers int
}

// WithConfig replaces the base configuration the remaining options layer
// over.
func WithConfig(cfg Config) Option {
	return func(s *settings) { s.cfg = cfg }
}

// WithWorkers sets the number of worker goroutines per pipeline stage;
// n ≤ 0 selects runtime.GOMAXPROCS(0) at each call (the default).
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithBasis selects the wavelet filter bank (default CDF(2,2), the paper's
// choice; use HaarBasis for high-dimensional data).
func WithBasis(b Basis) Option {
	return func(s *settings) { s.cfg.Basis = b }
}

// WithScale sets the number of grid cells per dimension; 0 selects the
// automatic scale from the data size and dimensionality.
func WithScale(scale int) Option {
	return func(s *settings) { s.cfg.Scale = scale }
}

// WithLevels sets the wavelet decomposition depth (default 1; 0 skips the
// transform — the ablation configuration).
func WithLevels(levels int) Option {
	return func(s *settings) { s.cfg.Levels = levels }
}

// WithThreshold selects the noise-threshold strategy applied to the sorted
// density curve (default ThreeSegmentFit, the paper's adaptive elbow).
func WithThreshold(strategy ThresholdStrategy) Option {
	return func(s *settings) { s.cfg.Threshold = strategy }
}

// WithConnectivity selects the component neighbor relation (default Faces).
func WithConnectivity(c Connectivity) Option {
	return func(s *settings) { s.cfg.Connectivity = c }
}

// WithCoeffEpsilon sets the coefficient-denoising fraction: transformed
// cells below eps × (max cell density) are discarded before the adaptive
// threshold is estimated. Must be in [0, 1).
func WithCoeffEpsilon(eps float64) Option {
	return func(s *settings) { s.cfg.CoeffEpsilon = eps }
}

// WithMinClusterCells demotes components with fewer cells than n to noise
// (1 disables the filter).
func WithMinClusterCells(n int) Option {
	return func(s *settings) { s.cfg.MinClusterCells = n }
}

// WithMinClusterMass demotes components carrying less than frac of the
// heaviest component's density mass to noise (0 disables; the heaviest
// component is never demoted).
func WithMinClusterMass(frac float64) Option {
	return func(s *settings) { s.cfg.MinClusterMass = frac }
}

// WithEmbedding installs a dimensionality-reduction front-end (see PCA and
// RandomProjection) as the pipeline's first stage. The zero Embedding
// disables it. Sessions created from the clusterer fit the embedding once on
// their first appended batch and checkpoint the fitted parameters; restoring
// under a different embedding spec fails with ErrEmbeddingMismatch.
func WithEmbedding(e Embedding) Option {
	return func(s *settings) { s.cfg.Embedding = e }
}

// New constructs a Clusterer from functional options layered over
// DefaultConfig — the one construction path:
//
//	c, err := adawave.New(adawave.WithWorkers(8), adawave.WithBasis(adawave.HaarBasis()))
//	res, err := c.ClusterDatasetContext(ctx, ds)
//
// The same option set configures streaming sessions: c.NewSession() and
// c.RestoreSession(r) share the clusterer's engine, workers and pooled
// buffers.
func New(opts ...Option) (*Clusterer, error) {
	s := settings{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&s)
	}
	eng, err := core.NewEngine(s.cfg, s.workers)
	if err != nil {
		return nil, err
	}
	return &Clusterer{eng: eng}, nil
}
