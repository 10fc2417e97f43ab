// Noisyrings: the shape-insensitivity story of the paper. Two rings whose
// axis projections overlap defeat both k-means (no noise concept, convex
// bias) and SkinnyDip (needs unimodal projections); AdaWave separates them
// because connected grid components carry no shape assumption.
package main

import (
	"context"
	"fmt"
	"log"

	"adawave"
)

func main() {
	// The evaluation mixture at 70 % noise — past the point where the
	// paper shows DBSCAN collapsing.
	data := adawave.SyntheticEvaluation(1200, 0.7, 7)
	fmt.Printf("dataset: %d points, %.0f%% noise, rings + segments + ellipse\n\n",
		data.N(), data.NoiseFraction()*100)

	// All three ablation runs share the flat Dataset: the points are packed
	// into one row-major slice once and every run quantizes from it.
	ds := data.Flat()
	res, err := clusterWith(ds, adawave.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	ami := adawave.AMINonNoise(data.Labels, res.Labels, adawave.NoiseLabel)
	fmt.Printf("AdaWave: %d clusters, AMI %.3f\n", res.NumClusters, ami)

	// Ablation within the same pipeline: replace the adaptive threshold
	// with WaveCluster's fixed cutoff and watch the rings drown.
	fixed := adawave.DefaultConfig()
	fixed.Threshold = adawave.FixedThreshold{Value: 5}
	fres, err := clusterWith(ds, fixed)
	if err != nil {
		log.Fatal(err)
	}
	fami := adawave.AMINonNoise(data.Labels, fres.Labels, adawave.NoiseLabel)
	fmt.Printf("fixed threshold (WaveCluster-style): %d clusters, AMI %.3f\n", fres.NumClusters, fami)

	// And with a quantile cutoff, the middle ground.
	quant := adawave.DefaultConfig()
	quant.Threshold = adawave.QuantileThreshold{Q: 0.8}
	qres, err := clusterWith(ds, quant)
	if err != nil {
		log.Fatal(err)
	}
	qami := adawave.AMINonNoise(data.Labels, qres.Labels, adawave.NoiseLabel)
	fmt.Printf("quantile threshold (keep top 20%% cells): %d clusters, AMI %.3f\n\n", qres.NumClusters, qami)

	fmt.Println("ground truth:")
	fmt.Println(adawave.ScatterPlot(data.Points, data.Labels, 72, 20))
	fmt.Println("AdaWave (adaptive threshold):")
	fmt.Println(adawave.ScatterPlot(data.Points, res.Labels, 72, 20))
}

// clusterWith runs the flat Dataset fast path under the given config.
func clusterWith(ds *adawave.Dataset, cfg adawave.Config) (*adawave.Result, error) {
	clusterer, err := adawave.New(adawave.WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return clusterer.ClusterDatasetContext(context.Background(), ds)
}
