// Command adawave clusters a CSV point set with the AdaWave algorithm and
// writes the labeled result (or a terminal rendering) back out.
//
// Usage:
//
//	adawave -in points.csv [-out labeled.csv] [-scale 128] [-levels 1]
//	        [-basis cdf22] [-threshold adaptive|knee|quantile|fixed]
//	        [-quantile 0.8] [-fixed 5] [-workers 0] [-plot] [-stats]
//
// The input CSV has one point per row (optional x0…xd header); an existing
// “label” column is ignored for clustering but used to print an AMI score
// when present.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"adawave"
	"adawave/internal/dataio"
)

func main() {
	var (
		in        = flag.String("in", "", "input CSV of points (required)")
		out       = flag.String("out", "", "output CSV with a label column (optional)")
		scale     = flag.Int("scale", 128, "grid cells per dimension (0 = automatic)")
		levels    = flag.Int("levels", 1, "wavelet decomposition levels")
		basisName = flag.String("basis", "cdf22", "wavelet basis: haar, db4 or cdf22")
		threshold = flag.String("threshold", "adaptive", "threshold strategy: adaptive, knee, quantile or fixed")
		quantile  = flag.Float64("quantile", 0.8, "drop fraction for -threshold quantile")
		fixed     = flag.Float64("fixed", 5, "absolute density for -threshold fixed")
		workers   = flag.Int("workers", 0, "worker goroutines per pipeline stage (0 = all processors)")
		plotOut   = flag.Bool("plot", false, "print an ASCII scatter of the clustering")
		stats     = flag.Bool("stats", false, "print per-stage cell counts and the density curve cut")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "adawave: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	ds, truth, err := dataio.ReadFileDataset(*in)
	if err != nil {
		fatal(err)
	}
	if ds == nil || ds.N == 0 {
		fatal(fmt.Errorf("no points in %s", *in))
	}

	cfg := adawave.DefaultConfig()
	cfg.Scale = *scale
	cfg.Levels = *levels
	basis, err := adawave.BasisByName(*basisName)
	if err != nil {
		fatal(err)
	}
	cfg.Basis = basis
	switch *threshold {
	case "adaptive":
		cfg.Threshold = adawave.ThreeSegmentFit{}
	case "knee":
		cfg.Threshold = adawave.SecondKnee{}
	case "quantile":
		cfg.Threshold = adawave.QuantileThreshold{Q: *quantile}
	case "fixed":
		cfg.Threshold = adawave.FixedThreshold{Value: *fixed}
	default:
		fatal(fmt.Errorf("unknown -threshold %q", *threshold))
	}

	clusterer, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(*workers))
	if err != nil {
		fatal(err)
	}
	res, err := clusterer.ClusterDatasetContext(context.Background(), ds)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("n=%d d=%d → %d clusters, %d noise points (%.1f%%)\n",
		ds.N, ds.D, res.NumClusters, res.NoiseCount(),
		100*float64(res.NoiseCount())/float64(ds.N))
	if truth != nil {
		fmt.Printf("AMI against the input's label column: %.3f\n",
			adawave.AMINonNoise(truth, res.Labels, adawave.NoiseLabel))
	}
	if *stats {
		fmt.Printf("cells: quantized=%d transformed=%d kept=%d\n",
			res.CellsQuantized, res.CellsTransformed, res.CellsKept)
		fmt.Printf("threshold: density %.4f at index %d of %d\n",
			res.Threshold, res.ThresholdIndex, len(res.Curve))
	}
	if *plotOut {
		fmt.Print(adawave.ScatterPlot(ds.Rows(), res.Labels, 78, 26))
	}
	if *out != "" {
		if err := dataio.WriteFileDataset(*out, ds, res.Labels); err != nil {
			fatal(err)
		}
		fmt.Printf("labeled points written to %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adawave:", err)
	os.Exit(1)
}
