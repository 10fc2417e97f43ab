package adawave

import (
	"context"

	"adawave/internal/core"
	"adawave/internal/embed"
	"adawave/internal/wavelet"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = core.Noise

// Config holds AdaWave parameters; start from DefaultConfig. See the field
// documentation on core.Config (re-exported here) for details.
type Config = core.Config

// Result is the outcome of one AdaWave run: per-point labels (Noise or
// 0…NumClusters−1), the adaptively chosen threshold, the sorted density
// curve it was chosen on, and cell-count diagnostics for each pipeline
// stage.
type Result = core.Result

// ThresholdStrategy chooses the noise-filtering density threshold from the
// descending sorted-density curve of the transformed grid.
type ThresholdStrategy = core.ThresholdStrategy

// Threshold strategies. ThreeSegmentFit is the paper's adaptive elbow
// (default); SecondKnee is the turning-angle rendering of Algorithm 4;
// QuantileThreshold and FixedThreshold are the non-adaptive baselines.
type (
	ThreeSegmentFit   = core.ThreeSegmentFit
	SecondKnee        = core.SecondKnee
	QuantileThreshold = core.QuantileThreshold
	FixedThreshold    = core.FixedThreshold
)

// Basis is a wavelet filter bank in density-preserving (DC gain 1)
// normalization.
type Basis = wavelet.Basis

// Embedding specifies the optional dimensionality-reduction front-end that
// runs as the pipeline's first stage: raw rows are projected to K dimensions
// and everything downstream — grid, transform, threshold, components,
// assignment — operates in the projected space. The zero value disables the
// stage. Construct with PCA or RandomProjection and install with
// WithEmbedding; the same clusterer then clusters, streams and checkpoints
// in the embedded space (a streaming session fits the embedding once, on its
// first appended batch, and never refits).
type Embedding = embed.Spec

// PCA returns an Embedding that projects rows onto their top k principal
// components, fitted deterministically on (a stride sample of) the data.
// Best when the data concentrates near a k-dimensional linear subspace and
// the fit may adapt to the data.
func PCA(k int) Embedding {
	return Embedding{Kind: embed.KindPCA, K: k}
}

// RandomProjection returns an Embedding that projects rows through a seeded
// sparse random matrix (Achlioptas ±√(3/k) entries) down to k dimensions.
// Data-independent: the matrix depends only on (k, seed, input dimension),
// so distances are preserved in the Johnson–Lindenstrauss sense and results
// are reproducible across datasets sharing a shape.
func RandomProjection(k int, seed int64) Embedding {
	return Embedding{Kind: embed.KindRP, K: k, Seed: seed}
}

// DefaultConfig returns the paper's default parameters: scale 128,
// CDF(2,2) basis, one decomposition level, face connectivity, and the
// adaptive three-segment threshold.
func DefaultConfig() Config { return core.DefaultConfig() }

// AutoScale returns the automatic grid scale for n points in d dimensions
// (used when Config.Scale is 0).
func AutoScale(n, d int) int { return core.AutoScale(n, d) }

// Clusterer is a reusable AdaWave engine: quantization, the separable
// wavelet transform and point assignment run sharded across worker
// goroutines over a flat struct-of-arrays grid, and scratch buffers are
// pooled across calls. A single Clusterer is safe for concurrent calls, and
// its output does not depend on the worker count: for every basis it
// matches the sequential map-based reference (internal/oracle, test-only)
// label for label, threshold included. Build one with New.
type Clusterer struct {
	eng *core.Engine
}

// ClusterDatasetContext runs the parallel AdaWave pipeline on a flat
// row-major Dataset (slice callers convert with FromSlices). Each point's
// base cell is memoized during quantization, so assignment is one array
// lookup per point. Every pipeline stage polls ctx at its shard boundaries,
// and a cancelled run unwinds cleanly — pooled buffers returned, no partial
// result — reporting an error matched by errors.Is against ErrCanceled or
// ErrDeadlineExceeded (and the originating context sentinel).
func (c *Clusterer) ClusterDatasetContext(ctx context.Context, ds *Dataset) (*Result, error) {
	return c.eng.ClusterDatasetContext(ctx, ds)
}

// ClusterMultiResolutionDatasetContext clusters ds at every decomposition
// level from 1 to maxLevels in one pass, returning one Result per level:
// finer levels separate nearby structures, coarser levels merge them.
// Points are quantized once and the levels are finished concurrently.
func (c *Clusterer) ClusterMultiResolutionDatasetContext(ctx context.Context, ds *Dataset, maxLevels int) ([]*Result, error) {
	return c.eng.ClusterMultiResolutionDatasetContext(ctx, ds, maxLevels)
}

// Config returns the clusterer's (validated) configuration.
func (c *Clusterer) Config() Config { return c.eng.Config() }

// Workers returns the configured worker count (0 = all processors).
func (c *Clusterer) Workers() int { return c.eng.Workers() }

// AssignNoiseToNearest reassigns Noise-labeled points to the cluster with
// the nearest centroid (recomputed iterations times) — the paper's
// protocol for fully labeled datasets that contain no true noise class.
// The nearest-centroid search runs sharded across all processors; the
// result does not depend on the worker count.
func AssignNoiseToNearest(points [][]float64, labels []int, iterations int) []int {
	return core.AssignNoiseToNearest(points, labels, iterations)
}

// HaarBasis returns the Haar wavelet basis. Its one-to-one cell mapping
// makes it the right choice for high-dimensional data, where longer
// filters densify the sparse grid.
func HaarBasis() Basis { return wavelet.Haar() }

// DB4Basis returns the 4-tap Daubechies wavelet basis.
func DB4Basis() Basis { return wavelet.DB4() }

// DB6Basis returns the 6-tap Daubechies wavelet basis (three vanishing
// moments).
func DB6Basis() Basis { return wavelet.DB6() }

// CDF22Basis returns the Cohen-Daubechies-Feauveau (2,2) basis — the
// paper's default.
func CDF22Basis() Basis { return wavelet.CDF22() }

// CDF13Basis returns the Cohen-Daubechies-Feauveau (1,3) basis.
func CDF13Basis() Basis { return wavelet.CDF13() }

// BasisByName returns the basis named "haar", "db4", "db6", "cdf22" or
// "cdf13".
func BasisByName(name string) (Basis, error) { return wavelet.ByName(name) }

// Bases returns all built-in wavelet bases.
func Bases() []Basis { return wavelet.Bases() }
