// Multiresolution: the wavelet transform's layered structure lets AdaWave
// cluster the same data at several resolutions in one framework — fine
// levels separate nearby structures, coarse levels merge them (paper §IV-F,
// “AdaWave can cluster in multi-resolution simultaneously”).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"adawave"
)

func main() {
	// Four tight blobs arranged as two nearby pairs: at fine resolution
	// they are four clusters, at coarse resolution two.
	data := pairs()
	fmt.Printf("dataset: %d points, four blobs in two close pairs\n\n", len(data))

	// The flat Dataset path quantizes the points once and reuses the
	// point→cell memo at every level — the fast entry point for
	// multi-resolution work.
	ds, err := adawave.FromSlices(data)
	if err != nil {
		log.Fatal(err)
	}
	clusterer, err := adawave.New(adawave.WithScale(256))
	if err != nil {
		log.Fatal(err)
	}
	results, err := clusterer.ClusterMultiResolutionDatasetContext(context.Background(), ds, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %10s %12s %10s\n", "level", "scale", "kept cells", "clusters")
	for _, r := range results {
		fmt.Printf("%-8d %10d %12d %10d\n", r.Levels, r.Scale>>uint(r.Levels), r.CellsKept, r.NumClusters)
	}
	fmt.Println("\nfinest level:")
	fmt.Println(adawave.ScatterPlot(data, results[0].Labels, 64, 18))
	fmt.Println("coarsest level:")
	fmt.Println(adawave.ScatterPlot(data, results[len(results)-1].Labels, 64, 18))
}

// pairs builds four tight Gaussian blobs arranged as two close pairs
// (deterministic seed).
func pairs() [][]float64 {
	rng := rand.New(rand.NewSource(3))
	var out [][]float64
	for _, ctr := range [][2]float64{{0.22, 0.25}, {0.34, 0.25}, {0.68, 0.75}, {0.80, 0.75}} {
		for i := 0; i < 800; i++ {
			out = append(out, []float64{
				ctr[0] + rng.NormFloat64()*0.018,
				ctr[1] + rng.NormFloat64()*0.018,
			})
		}
	}
	return out
}
