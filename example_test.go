package adawave_test

import (
	"context"
	"fmt"
	"log"

	"adawave"
)

// ExampleNew is the README quickstart: slice rows go in through FromSlices,
// New with no options is the paper's parameter-free setting, and
// ClusterDatasetContext runs the pipeline.
func ExampleNew() {
	// The paper's synthetic benchmark: five clusters of 1000 points each
	// in 50 % uniform background noise.
	points := adawave.SyntheticEvaluation(1000, 0.5, 42).Points

	ds, err := adawave.FromSlices(points)
	if err != nil {
		log.Fatal(err)
	}
	c, err := adawave.New()
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.ClusterDatasetContext(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters:", res.NumClusters)
	fmt.Println("labeled points:", len(res.Labels)) // adawave.Noise marks noise
	// Output:
	// clusters: 5
	// labeled points: 10000
}

// ExampleClusterer_NewSession streams batches into a session and reads the
// labels of everything appended so far; they equal a one-shot run over the
// same points.
func ExampleClusterer_NewSession() {
	ctx := context.Background()
	c, err := adawave.New()
	if err != nil {
		log.Fatal(err)
	}
	sess := c.NewSession()

	points := adawave.SyntheticEvaluation(1000, 0.5, 42).Points
	for _, batch := range [][][]float64{points[:4000], points[4000:]} {
		ds, err := adawave.FromSlices(batch)
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.AppendContext(ctx, ds); err != nil {
			log.Fatal(err)
		}
	}
	labels, err := sess.LabelsContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	clusters := 0
	for _, l := range labels {
		if l+1 > clusters {
			clusters = l + 1
		}
	}
	fmt.Println(len(labels), "points in", clusters, "clusters")
	// Output:
	// 10000 points in 5 clusters
}
