package experiments

import (
	"context"
	"fmt"

	"adawave/internal/baselines/dbscan"
	"adawave/internal/baselines/dipmeans"
	"adawave/internal/baselines/em"
	"adawave/internal/baselines/kmeans"
	"adawave/internal/baselines/ric"
	"adawave/internal/baselines/skinnydip"
	"adawave/internal/baselines/stsc"
	"adawave/internal/baselines/wavecluster"
	"adawave/internal/core"
	"adawave/internal/metrics"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// Algorithm adapts one clustering method to the harness protocol of the
// paper's §V: k is the ground-truth class count (the “correct k” the paper
// grants centroid methods), truth is consulted only by protocols that pick
// parameters by best achieved score (the paper's DBSCAN ε sweep), and seed
// drives any internal randomness.
type Algorithm struct {
	Name string
	Run  func(points [][]float64, k int, truth []int, seed int64) ([]int, error)
}

// adaWaveAlg runs AdaWave (the parallel engine with the given worker
// count) with its defaults. When reassignNoise is set, the paper's
// real-data protocol is applied: detected noise points are folded into the
// nearest cluster by k-means iterations (Table I footnote).
func adaWaveAlg(reassignNoise bool, workers int) Algorithm {
	return Algorithm{Name: "AdaWave", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		cfg := core.DefaultConfig()
		if len(points) > 0 && len(points[0]) > 2 {
			cfg.Scale = 0 // auto scale for the higher-dimensional datasets
		}
		if len(points) > 0 && len(points[0]) > 8 {
			// Long filters scatter each occupied cell into several cells
			// per dimension, densifying the sparse grid exponentially in
			// d; Haar maps every cell to exactly one (the paper is silent
			// on how its 33-dimensional transform stayed tractable).
			cfg.Basis = wavelet.Haar()
		}
		eng, err := core.NewEngine(cfg, workers)
		if err != nil {
			return nil, err
		}
		ds, err := pointset.FromSlices(points)
		if err != nil {
			return nil, err
		}
		res, err := eng.ClusterDatasetContext(context.Background(), ds)
		if err != nil {
			return nil, err
		}
		if reassignNoise {
			return core.AssignNoiseToNearest(points, res.Labels, 3), nil
		}
		return res.Labels, nil
	}}
}

// skinnyDipAlg runs SkinnyDip with its defaults.
func skinnyDipAlg() Algorithm {
	return Algorithm{Name: "SkinnyDip", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		res, err := skinnydip.Cluster(points, skinnydip.Config{})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}}
}

// dbscanAlg reproduces the paper's automation: minPts = 8, ε swept over the
// grid, keeping the labeling with the best AMI against the ground truth.
func dbscanAlg(eps []float64) Algorithm {
	return Algorithm{Name: "DBSCAN", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		sweep, err := dbscan.Sweep(points, eps, 8, func(r *dbscan.Result) float64 {
			return metrics.AMINonNoise(truth, r.Labels, synth.NoiseLabel)
		})
		if err != nil {
			return nil, err
		}
		return sweep.Result.Labels, nil
	}}
}

// dbscanEpsGrid is the paper's sweep ε ∈ {0.01, 0.02, …, 0.2}; quick mode
// thins it to every fourth value.
func dbscanEpsGrid(quick bool) []float64 {
	var eps []float64
	step := 1
	if quick {
		step = 4
	}
	for i := 1; i <= 20; i += step {
		eps = append(eps, float64(i)/100)
	}
	return eps
}

// emAlg runs the Gaussian mixture with the correct k.
func emAlg() Algorithm {
	return Algorithm{Name: "EM", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		res, err := em.Cluster(points, em.Config{K: k, Seed: seed})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}}
}

// kmeansAlg runs k-means with the correct k (the paper's concession).
func kmeansAlg() Algorithm {
	return Algorithm{Name: "k-means", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		res, err := kmeans.Cluster(points, kmeans.Config{K: k, Seed: seed, Restarts: 3})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}}
}

// waveClusterAlg runs the fixed-threshold ancestor.
func waveClusterAlg() Algorithm {
	return Algorithm{Name: "WaveCluster", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		res, err := wavecluster.Cluster(points, wavecluster.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}}
}

// stscAlg runs self-tuning spectral clustering with automatic k.
func stscAlg() Algorithm {
	return Algorithm{Name: "STSC", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		res, err := stsc.Cluster(points, stsc.Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}}
}

// dipMeansAlg runs dip-means with automatic k.
func dipMeansAlg() Algorithm {
	return Algorithm{Name: "DipMean", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		res, err := dipmeans.Cluster(points, dipmeans.Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}}
}

// ricAlg runs RIC on a k-means preliminary clustering with headroom above
// the true k (RIC only merges downward).
func ricAlg() Algorithm {
	return Algorithm{Name: "RIC", Run: func(points [][]float64, k int, truth []int, seed int64) ([]int, error) {
		initial := 2 * k
		if initial < 8 {
			initial = 8
		}
		res, err := ric.Cluster(points, ric.Config{InitialK: initial, Seed: seed})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}}
}

// scoreAlg runs one algorithm and scores it with the paper's fairness rule:
// AMI over ground-truth non-noise points only.
func scoreAlg(a Algorithm, points [][]float64, k int, truth []int, seed int64) (float64, []int, error) {
	labels, err := a.Run(points, k, truth, seed)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return metrics.AMINonNoise(truth, labels, synth.NoiseLabel), labels, nil
}
