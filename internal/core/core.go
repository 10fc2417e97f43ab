// Package core implements AdaWave, the adaptive wavelet clustering
// algorithm of Chen et al. (ICDE 2019): quantize the feature space into a
// sparse grid, run a separable discrete wavelet transform keeping the
// scale-space (low-pass) subband, filter noise cells with an adaptively
// chosen density threshold, label connected components, and map points back
// through the lookup table. The algorithm is deterministic, linear in the
// number of points, input-order insensitive and shape insensitive.
package core

import (
	"errors"
	"fmt"
	"math"

	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/wavelet"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Config holds AdaWave parameters. The zero value is not valid; start from
// DefaultConfig. The paper calls AdaWave “parameter free” because every
// field has a data-independent default that was used for all experiments.
type Config struct {
	// Scale is the number of grid cells per dimension (paper default 128
	// for the 2-D experiments). 0 selects an automatic scale from the
	// data size and dimension: the smallest power of two ≥ (n/4)^(1/d),
	// clamped to [4, 256], so that high-dimensional data still produces
	// multi-point cells.
	Scale int
	// Basis is the wavelet filter bank (paper default CDF(2,2)).
	Basis wavelet.Basis
	// Levels is the number of wavelet decomposition levels (≥ 0; 0 skips
	// the transform entirely, which degrades AdaWave to plain grid
	// clustering and exists for ablation).
	Levels int
	// Connectivity selects the neighbor relation for connected components.
	Connectivity grid.Connectivity
	// CoeffEpsilon is the paper's preliminary “coefficient denoising”
	// (“remove … the low value of scaling coefficients”): transformed
	// cells with density below CoeffEpsilon × (max cell density) are
	// discarded before the adaptive threshold is estimated. Must be in
	// [0, 1). This also removes the small positive satellites produced by
	// the negative filter taps around isolated cells.
	CoeffEpsilon float64
	// Threshold picks the adaptive noise threshold from the sorted
	// density curve.
	Threshold ThresholdStrategy
	// MinClusterCells demotes connected components with fewer cells than
	// this to noise (1 disables the filter).
	MinClusterCells int
	// MinClusterMass demotes connected components carrying less than this
	// fraction of the heaviest component's density mass to noise
	// (0 disables). This suppresses fringe satellites without a fixed
	// cell-count assumption: real clusters carry mass comparable to each
	// other, satellites carry a sliver. The heaviest component is never
	// demoted, so a non-empty grid always yields at least one cluster.
	MinClusterMass float64
	// PackedCells is ignored: every grid that stays resident — a
	// streaming Session's live base grid, the external path's merged
	// output, every checkpoint grid — is block-compressed (see
	// internal/grid's PackedGrid). DefaultConfig still sets it, because
	// perfbench's stage replay branches on it to mirror the engine.
	//
	// Deprecated: core ignores PackedCells; the packed representation is
	// the only one at rest.
	PackedCells bool
	// Embedding, when enabled, prepends a fitted linear projection to the
	// pipeline: rows are embedded into Embedding.K dimensions (PCA over
	// the Jacobi eigensolver, or a seeded sparse random projection) before
	// quantization, and every later stage — grid, transform, threshold,
	// assignment, the external path — consumes the projected rows
	// unchanged. The zero Spec disables it (the paper's raw-space
	// pipeline). One-shot runs fit the embedder on the input itself; a
	// streaming Session fits once on its first appended batch and never
	// refits, and checkpoints carry the fitted parameters.
	Embedding embed.Spec
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{
		Scale:        128,
		Basis:        wavelet.CDF22(),
		Levels:       1,
		Connectivity: grid.Faces,
		// 0.01 keeps the low-density ring/segment cells that a larger
		// epsilon wipes out at low noise (calibrated on the paper's Fig. 8
		// sweep: 0.05 costs ≈0.2 AMI at γ=20 %, 0 breaks at γ=90 % because
		// filter satellites survive into the threshold estimate).
		CoeffEpsilon:    0.01,
		Threshold:       ThreeSegmentFit{},
		MinClusterCells: 1,
		MinClusterMass:  0.05,
		// Ignored by core; kept true so perfbench's replay takes the
		// packed branch the engine always takes.
		PackedCells: true,
	}
}

// AutoScale returns the automatic grid scale for n points in d dimensions:
// the smallest power of two ≥ (n/4)^(1/d), clamped to [4, 256].
func AutoScale(n, d int) int {
	if n < 1 || d < 1 {
		return 4
	}
	target := math.Pow(float64(n)/4, 1/float64(d))
	s := 4
	for s < 256 && float64(s) < target {
		s <<= 1
	}
	return s
}

// Result is the outcome of one AdaWave run.
type Result struct {
	// Labels holds one label per input point: 0…NumClusters−1, or Noise.
	Labels []int
	// NumClusters is the number of detected clusters.
	NumClusters int
	// Threshold is the adaptive density threshold in transformed space.
	Threshold float64
	// ThresholdIndex is the cut position on Curve.
	ThresholdIndex int
	// Curve is the descending sorted-density curve the threshold was
	// chosen on (paper Fig. 6). Shared, do not modify.
	Curve []float64
	// CellsQuantized, CellsTransformed and CellsKept count occupied grid
	// cells after quantization, after the wavelet transform (and
	// coefficient denoising), and after threshold filtering.
	CellsQuantized   int
	CellsTransformed int
	CellsKept        int
	// Levels and Scale echo the effective configuration.
	Levels int
	Scale  int
}

// ClusterSizes returns the number of points in each cluster label
// (excluding noise).
func (r *Result) ClusterSizes() map[int]int {
	out := make(map[int]int)
	for _, l := range r.Labels {
		if l != Noise {
			out[l]++
		}
	}
	return out
}

// NoiseCount returns the number of points labeled Noise.
func (r *Result) NoiseCount() int {
	n := 0
	for _, l := range r.Labels {
		if l == Noise {
			n++
		}
	}
	return n
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Scale != 0 && c.Scale < 2 {
		return fmt.Errorf("core: Scale must be 0 (auto) or ≥ 2, got %d", c.Scale)
	}
	if c.Levels < 0 {
		return fmt.Errorf("core: Levels must be ≥ 0, got %d", c.Levels)
	}
	if c.Scale != 0 && c.Scale>>uint(c.Levels) < 2 {
		return fmt.Errorf("core: Scale %d too small for %d levels", c.Scale, c.Levels)
	}
	if len(c.Basis.Lo) == 0 {
		return errors.New("core: Basis is unset (use DefaultConfig)")
	}
	if c.CoeffEpsilon < 0 || c.CoeffEpsilon >= 1 {
		return fmt.Errorf("core: CoeffEpsilon must be in [0,1), got %v", c.CoeffEpsilon)
	}
	if c.Threshold == nil {
		return errors.New("core: Threshold strategy is unset (use DefaultConfig)")
	}
	if c.MinClusterCells < 1 {
		return fmt.Errorf("core: MinClusterCells must be ≥ 1, got %d", c.MinClusterCells)
	}
	if c.MinClusterMass < 0 || c.MinClusterMass >= 1 {
		return fmt.Errorf("core: MinClusterMass must be in [0,1), got %v", c.MinClusterMass)
	}
	if err := c.Embedding.Validate(); err != nil {
		return err
	}
	return nil
}

// resolveScale substitutes the automatic scale for Scale == 0 and clamps
// Levels so every dimension keeps at least two cells after decomposition.
func resolveScale(cfg Config, n, d int) Config {
	if cfg.Scale == 0 {
		if d < 1 {
			d = 1
		}
		cfg.Scale = AutoScale(n, d)
		for cfg.Levels > 0 && cfg.Scale>>uint(cfg.Levels) < 2 {
			cfg.Levels--
		}
	}
	return cfg
}
