// Package wavecluster implements the original WaveCluster algorithm
// (Sheikholeslami, Chatterjee & Zhang, VLDB 1998): the same
// quantize → wavelet transform → threshold → connected-components pipeline
// as AdaWave, but with a *fixed* density threshold relative to the mean
// cell density instead of AdaWave's adaptive elbow. It is the ancestor
// baseline the paper ablates against (the lowest curve of Fig. 8).
package wavecluster

import (
	"context"

	"adawave/internal/core"
	"adawave/internal/grid"
	"adawave/internal/pointset"
	"adawave/internal/wavelet"
)

// Noise is the label of points in no cluster.
const Noise = core.Noise

// Config parameterizes a run.
type Config struct {
	// Scale is the cells-per-dimension of the quantizer (default 128,
	// 0 selects the automatic scale).
	Scale int
	// Basis is the wavelet filter bank (default CDF(2,2), as in the
	// original paper).
	Basis wavelet.Basis
	// Levels is the number of decomposition levels (default 1).
	Levels int
	// Density is the fixed absolute threshold: transformed cells with
	// density below it are dropped (default 5 points per cell). This is
	// the crucial difference from AdaWave — the cutoff does not adapt to
	// the noise level, which is why WaveCluster collapses once the
	// background noise density crosses it (the paper's Fig. 8).
	Density float64
	// Connectivity for component labeling (default Faces).
	Connectivity grid.Connectivity
}

// DefaultConfig returns the classic parameterization.
func DefaultConfig() Config {
	return Config{
		Scale:        128,
		Basis:        wavelet.CDF22(),
		Levels:       1,
		Density:      5,
		Connectivity: grid.Faces,
	}
}

// Result re-exports the core result type (same diagnostics).
type Result = core.Result

// Cluster runs WaveCluster on points.
func Cluster(points [][]float64, cfg Config) (*Result, error) {
	if cfg.Scale == 0 && len(points) > 0 {
		cfg.Scale = core.AutoScale(len(points), len(points[0]))
	} else if cfg.Scale == 0 {
		cfg.Scale = 128
	}
	if len(cfg.Basis.Lo) == 0 {
		cfg.Basis = wavelet.CDF22()
	}
	if cfg.Levels == 0 {
		cfg.Levels = 1
	}
	if cfg.Density <= 0 {
		cfg.Density = 5
	}
	ccfg := core.Config{
		Scale:           cfg.Scale,
		Basis:           cfg.Basis,
		Levels:          cfg.Levels,
		Connectivity:    cfg.Connectivity,
		CoeffEpsilon:    0, // the fixed threshold is the only filter
		Threshold:       core.FixedThreshold{Value: cfg.Density},
		MinClusterCells: 2, // drop single-cell specks, per the original
		MinClusterMass:  0, // but no adaptive satellite suppression
	}
	eng, err := core.NewEngine(ccfg, 0)
	if err != nil {
		return nil, err
	}
	ds, err := pointset.FromSlices(points)
	if err != nil {
		return nil, grid.InvalidInput(err)
	}
	return eng.ClusterDatasetContext(context.Background(), ds)
}
