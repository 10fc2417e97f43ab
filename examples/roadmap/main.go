// Roadmap: the paper's Fig. 9 case study on a simulated North Jutland road
// network — find the populated areas (dense street grids) inside a majority
// of structured noise (arterial roads, countryside).
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"adawave"
)

func main() {
	data := adawave.RoadmapData(40000, 9)
	fmt.Printf("road network: %d segments, %.0f%% noise (arterials + countryside)\n\n",
		data.N(), data.NoiseFraction()*100)

	// The flat Dataset fast path: one row-major backing slice, memoized
	// point→cell ids, parallel sharded quantization.
	clusterer, err := adawave.New()
	if err != nil {
		log.Fatal(err)
	}
	res, err := clusterer.ClusterDatasetContext(context.Background(), data.Flat())
	if err != nil {
		log.Fatal(err)
	}
	ami := adawave.AMINonNoise(data.Labels, res.Labels, adawave.NoiseLabel)
	fmt.Printf("AdaWave: %d clusters, AMI %.3f (paper reports 0.735 on the real network)\n\n",
		res.NumClusters, ami)

	// Which cities did the clusters land on? Compare cluster centroids
	// against the simulated city coordinates.
	centroids := centroidsOf(data.Points, res.Labels, res.NumClusters)
	fmt.Printf("%-15s %9s  %s\n", "city", "distance", "found")
	for _, city := range adawave.RoadmapCityList() {
		best := math.Inf(1)
		for _, c := range centroids {
			if d := math.Hypot(c[0]-city.Lon, c[1]-city.Lat); d < best {
				best = d
			}
		}
		mark := "no"
		if best < 0.08 {
			mark = "yes"
		}
		fmt.Printf("%-15s %9.4f  %s\n", city.Name, best, mark)
	}

	fmt.Println()
	fmt.Println(adawave.ScatterPlot(data.Points, res.Labels, 76, 24))
}

// centroidsOf averages the points of each cluster 0…k−1.
func centroidsOf(points [][]float64, labels []int, k int) [][]float64 {
	sums := make([][]float64, k)
	counts := make([]int, k)
	for i := range sums {
		sums[i] = make([]float64, 2)
	}
	for i, l := range labels {
		if l < 0 {
			continue
		}
		counts[l]++
		sums[l][0] += points[i][0]
		sums[l][1] += points[i][1]
	}
	for c := range sums {
		if counts[c] > 0 {
			sums[c][0] /= float64(counts[c])
			sums[c][1] /= float64(counts[c])
		}
	}
	return sums
}
