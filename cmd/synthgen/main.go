// Command synthgen writes the paper's synthetic datasets to CSV for use
// with cmd/adawave or external tools, or streams arbitrarily large mixture
// datasets directly into the binary mapped-Dataset format consumed by the
// out-of-core pipeline (adawave.OpenMappedDataset +
// Clusterer.ClusterDatasetExternalOptions). A mapped file records the
// rows' bounding box in its trailer as they stream in, so the clustering
// that reads it builds its grid without a scan of the rows.
//
// Usage:
//
//	synthgen -dataset evaluation -noise 0.5 -per 5600 -out fig7.csv
//	synthgen -dataset running -out fig1.csv
//	synthgen -dataset roadmap -n 40000 -out roadmap.csv
//	synthgen -dataset glass -out glass.csv        (any Table I stand-in name)
//	synthgen -dataset blobs -k 4 -per 500 -dim 3 -out blobs.csv
//	synthgen -dataset highd -k 5 -per 250 -dim 64 -rank 4 -noise 0.2 -out highd64.csv
//	synthgen -dataset imageseg -size 48 -out image_seg.csv
//
//	// 10M-point 2-D mixture streamed straight to a mapped file, O(1) memory:
//	synthgen -format mapped -n 10000000 -dim 2 -k 6 -noise 0.3 -seed 1 -out pts.awds
package main

import (
	"flag"
	"fmt"
	"os"

	"adawave"
	"adawave/internal/dataio"
	"adawave/internal/synth"
)

func main() {
	var (
		dataset = flag.String("dataset", "evaluation", "evaluation, running, roadmap, blobs, or a Table I stand-in name (csv format)")
		format  = flag.String("format", "csv", "csv (labeled text) or mapped (binary mapped-Dataset file, streamed)")
		out     = flag.String("out", "", "output path (required)")
		noise   = flag.Float64("noise", 0.5, "noise fraction (evaluation, mapped)")
		per     = flag.Int("per", 5600, "points per cluster (evaluation, blobs)")
		n       = flag.Int("n", 0, "total points: roadmap size (csv) or dataset size (mapped)")
		k       = flag.Int("k", 4, "cluster count (blobs, mapped)")
		dim     = flag.Int("dim", 2, "dimensionality (blobs, highd, mapped)")
		rank    = flag.Int("rank", 4, "signal-subspace dimensionality for -dataset highd")
		size    = flag.Int("size", 48, "image side length for -dataset imageseg")
		std     = flag.Float64("std", 0.02, "cluster spread for -dataset blobs")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "synthgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	if *format == "mapped" {
		if *n <= 0 {
			fmt.Fprintln(os.Stderr, "synthgen: -format mapped requires -n > 0")
			os.Exit(2)
		}
		if err := writeMapped(*out, *n, *dim, *k, *noise, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "synthgen:", err)
			os.Exit(1)
		}
		fmt.Printf("mixture: n=%d d=%d clusters=%d noise=%.0f%% → %s (mapped)\n",
			*n, *dim, *k, *noise*100, *out)
		return
	}
	if *format != "csv" {
		fmt.Fprintf(os.Stderr, "synthgen: unknown -format %q (csv or mapped)\n", *format)
		os.Exit(2)
	}

	var ds *adawave.LabeledDataset
	switch *dataset {
	case "evaluation":
		ds = adawave.SyntheticEvaluation(*per, *noise, *seed)
	case "running":
		ds = adawave.RunningExample(*seed)
	case "roadmap":
		ds = adawave.RoadmapData(*n, *seed)
	case "blobs":
		ds = adawave.Blobs(*k, *per, *dim, *std, *seed)
	case "highd":
		ds = adawave.HighDimMixture(*k, *per, *dim, *rank, *noise, *seed)
	case "imageseg":
		ds = adawave.ImageSegmentation(*size, *seed)
	default:
		var err error
		ds, err = adawave.StandIn(*dataset, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synthgen:", err)
			os.Exit(2)
		}
	}

	if err := dataio.WriteFile(*out, ds.Points, ds.Labels); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: n=%d d=%d clusters=%d noise=%.0f%% → %s\n",
		ds.Name, ds.N(), ds.Dim(), ds.NumClusters(), ds.NoiseFraction()*100, *out)
}

// writeMapped streams a StreamMixture dataset into a mapped-Dataset file:
// constant memory, one sequential write pass, no [][]float64 ever built.
func writeMapped(path string, n, dim, k int, noise float64, seed int64) error {
	w, err := adawave.CreateMappedDataset(path, dim)
	if err != nil {
		return err
	}
	if err := synth.StreamMixture(n, dim, k, noise, seed, w.AppendRow); err != nil {
		w.Close()
		os.Remove(path)
		return err
	}
	return w.Close()
}
