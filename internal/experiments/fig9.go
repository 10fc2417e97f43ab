package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"adawave/internal/core"
	"adawave/internal/datasets"
	"adawave/internal/metrics"
	"adawave/internal/plot"
	"adawave/internal/synth"
)

// RunFig9 reproduces the Fig. 9 case study: AdaWave on the (simulated)
// North Jutland road network. The clusters AdaWave detects should be the
// populated areas; the report matches every detected cluster to the nearest
// simulated city and lists which cities were found.
func RunFig9(opt Options) error {
	w := opt.out()
	header(w, mustExperiment("fig9"))

	n := datasets.RoadmapFullN
	if opt.Quick {
		n = 12000
	}
	ds := datasets.Roadmap(n, opt.seed())
	fmt.Fprintf(w, "road network: n=%d, %.0f%% noise (arterials + countryside)\n",
		ds.N(), ds.NoiseFraction()*100)

	eng, err := core.NewEngine(core.DefaultConfig(), opt.engineWorkers())
	if err != nil {
		return fmt.Errorf("fig9: %w", err)
	}
	res, err := eng.ClusterDatasetContext(context.Background(), ds.Flat())
	if err != nil {
		return fmt.Errorf("fig9: %w", err)
	}
	ami := metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	fmt.Fprintf(w, "AdaWave: %d clusters, AMI %.3f (paper: 0.735)\n\n", res.NumClusters, ami)

	// Match detected clusters to cities by centroid distance.
	centroids := clusterCentroids(ds.Points, res.Labels, res.NumClusters)
	cities := datasets.RoadmapCities()
	fmt.Fprintf(w, "%-15s  %9s  %s\n", "city", "dist", "detected by cluster")
	found := 0
	for _, c := range cities {
		best, bestD := -1, math.Inf(1)
		for ci, ctr := range centroids {
			d := math.Hypot(ctr[0]-c.Lon, ctr[1]-c.Lat)
			if d < bestD {
				best, bestD = ci, d
			}
		}
		hit := best >= 0 && bestD < 0.08 // within a city's street-grid spread
		status := "—"
		if hit {
			status = fmt.Sprintf("#%d (%c)", best, plot.Glyph(best))
			found++
		}
		fmt.Fprintf(w, "%-15s  %9.4f  %s\n", c.Name, bestD, status)
	}
	fmt.Fprintf(w, "\n%d of %d cities detected (the paper names Aalborg, Hjørring and\nFrederikshavn — all over 20 000 inhabitants — as correctly found)\n\n",
		found, len(cities))
	fmt.Fprintf(w, "%s", plot.Scatter(ds.Points, res.Labels, 72, 22))
	return nil
}

// clusterCentroids returns the mean position of every cluster label
// 0…k−1 (nil entry for an empty label).
func clusterCentroids(points [][]float64, labels []int, k int) [][]float64 {
	if k == 0 {
		return nil
	}
	d := len(points[0])
	sums := make([][]float64, k)
	counts := make([]int, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	for i, l := range labels {
		if l < 0 || l >= k {
			continue
		}
		counts[l]++
		for j, v := range points[i] {
			sums[l][j] += v
		}
	}
	for c := range sums {
		if counts[c] == 0 {
			continue
		}
		for j := range sums[c] {
			sums[c][j] /= float64(counts[c])
		}
	}
	return sums
}

// topClusterSizes returns the sizes of the k largest clusters, descending —
// a compact fingerprint used by reports.
func topClusterSizes(labels []int, k int) []int {
	counts := make(map[int]int)
	for _, l := range labels {
		if l >= 0 {
			counts[l]++
		}
	}
	sizes := make([]int, 0, len(counts))
	for _, c := range counts {
		sizes = append(sizes, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > k {
		sizes = sizes[:k]
	}
	return sizes
}
