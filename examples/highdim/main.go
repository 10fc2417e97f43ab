// Highdim: the grid-labeling story. In 33 dimensions a dense 2³³-cell-per-
// level grid is unthinkable, but the sparse “only store non-zero cells”
// structure keeps AdaWave linear in the number of occupied cells — the
// paper's Dermatology workload.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"adawave"
)

func main() {
	data, err := adawave.StandIn("dermatology", 21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d points in %d dimensions, %d classes\n\n",
		data.N(), data.Dim(), data.NumClusters())

	// Two options off the defaults: automatic scale (high dimension needs
	// coarse cells), and — because the basis matters for sparsity in high
	// dimension — Haar. The default CDF(2,2) filter scatters every occupied
	// cell into two cells per dimension (×2³³ here — the library aborts
	// rather than letting the sparse grid densify), while Haar maps each
	// cell to exactly one, keeping the transform linear in the occupied
	// cells. The flat Dataset fast path matters most here: 33 columns per
	// point stream out of one backing slice instead of 33-float heap rows.
	clusterer, err := adawave.New(
		adawave.WithScale(0),
		adawave.WithBasis(adawave.HaarBasis()),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := clusterer.ClusterDatasetContext(context.Background(), data.Flat())
	if err != nil {
		log.Fatal(err)
	}

	// The memory argument of the paper: a dense grid would hold scaleᵈ
	// cells; the sparse grid holds only the occupied ones.
	dense := math.Pow(float64(res.Scale), float64(data.Dim()))
	fmt.Printf("grid scale %d in %d-D → dense grid would need %.3g cells\n",
		res.Scale, data.Dim(), dense)
	fmt.Printf("sparse grid stores %d occupied cells (%.2g× smaller)\n\n",
		res.CellsQuantized, dense/float64(res.CellsQuantized))

	labels := adawave.AssignNoiseToNearest(data.Points, res.Labels, 3)
	fmt.Printf("AdaWave: %d clusters, AMI %.3f (noise folded into clusters —\nthe paper's protocol for fully labeled data)\n",
		res.NumClusters, adawave.AMI(data.Labels, labels))
}
