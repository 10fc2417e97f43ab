package adawave

import (
	"adawave/internal/grid"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// Dataset is the flat row-major point container of the hot path: all
// coordinates live in one backing slice (Data), point i occupying
// Data[i*D : (i+1)*D] — no per-point allocation or pointer chase. Build one
// with NewDataset + AppendRow (or read one zero-copy from CSV via
// internal/dataio's Dataset readers), convert [][]float64 with FromSlices
// (one copy), and go back with Rows (zero-copy views). Every Clusterer and
// Session entry point consumes it directly.
type Dataset = pointset.Dataset

// NewDataset returns an empty flat dataset of dimensionality d with room
// for capacity rows; fill it with AppendRow.
func NewDataset(d, capacity int) *Dataset { return pointset.New(d, capacity) }

// FromSlices copies row-major points into a flat Dataset — the one adapter
// for [][]float64 callers. All rows must share the same length; ragged rows
// are reported as ErrInvalidInput.
func FromSlices(points [][]float64) (*Dataset, error) {
	ds, err := pointset.FromSlices(points)
	return ds, grid.InvalidInput(err)
}

// LabeledDataset is a labeled point set: Labels[i] is the ground-truth
// cluster of Points[i], or NoiseLabel for background noise. Its Flat method
// yields the points as a Dataset for the flat clustering entry points.
type LabeledDataset = synth.Dataset

// NoiseLabel marks ground-truth noise points in generated datasets.
const NoiseLabel = synth.NoiseLabel

// SyntheticEvaluation generates the paper's Fig. 7 benchmark: five clusters
// of perCluster points each (a rotated ellipse, two rings whose axis
// projections overlap, and two parallel sloping segments) plus uniform
// background noise making up fraction gamma ∈ [0, 1) of the total. The
// paper uses perCluster = 5600 and gamma from 0.20 to 0.90.
func SyntheticEvaluation(perCluster int, gamma float64, seed int64) *LabeledDataset {
	return synth.Evaluation(perCluster, gamma, seed)
}

// RunningExample generates the paper's Fig. 1 running example: five
// heterogeneous clusters (blob, nested blob+ring, large ring, two parallel
// lines) in ~70 % uniform noise.
func RunningExample(seed int64) *LabeledDataset { return synth.RunningExample(seed) }

// Blobs generates k well-separated Gaussian blobs in dim dimensions — a
// generic easy benchmark.
func Blobs(k, perCluster, dim int, std float64, seed int64) *LabeledDataset {
	return synth.Blobs(k, perCluster, dim, std, seed)
}

// HighDimMixture generates k Gaussian clusters on a random rank-dimensional
// linear subspace of a dim-dimensional ambient space, with subspace-uniform
// background noise (fraction gamma) and small isotropic ambient noise — the
// embedding front-end's benchmark workload: hopeless for direct grid
// clustering at dim = 64, easy after WithEmbedding(PCA(rank)).
func HighDimMixture(k, perCluster, dim, rank int, gamma float64, seed int64) *LabeledDataset {
	return synth.HighDimMixture(k, perCluster, dim, rank, gamma, seed)
}

// ImageSegmentation renders a size×size synthetic grayscale image of four
// intensity regions and returns one wavelet-style feature row per pixel
// (intensity, two window means, Haar-style details, weakly scaled
// coordinates), labeled by ground-truth region — pixel clustering as in
// Chen & Frey (arXiv 1907.03591). Cluster the rows under
// WithEmbedding(PCA(2)) to segment the image.
func ImageSegmentation(size int, seed int64) *LabeledDataset {
	return synth.ImageSegmentation(size, seed)
}
