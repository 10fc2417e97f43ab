package adawave_test

import (
	"context"
	"testing"

	"adawave"
	"adawave/internal/dataio"
	"adawave/internal/embed"
)

// The two embedding workload suites. Each clusters a committed fixture
// (regenerable via cmd/synthgen — the regeneration is pinned against the
// in-process generator below) through the embedding front-end and scores
// the labels against ground truth with AMI.

// loadFixture reads a committed testdata CSV into points + labels.
func loadFixture(t *testing.T, path string) ([][]float64, []int) {
	t.Helper()
	points, labels, err := dataio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(points) {
		t.Fatalf("%s: %d labels for %d points", path, len(labels), len(points))
	}
	return points, labels
}

// TestHighDimMixtureScenario: the d=64 noisy mixture suite. Five Gaussian
// clusters on a random 4-dimensional subspace drowned in 20 % subspace
// noise — unclusterable on the raw 64-d grid, recovered through a fitted
// projection. PCA lands on the signal subspace exactly, so it gets the high
// floor; the k=4 random projection pays Johnson–Lindenstrauss distortion at
// the lowest useful k and keeps a lower one.
func TestHighDimMixtureScenario(t *testing.T) {
	points, truth := loadFixture(t, "testdata/highd64.csv")
	if len(points) != 1563 || len(points[0]) != 64 {
		t.Fatalf("fixture shape %d×%d, want 1563×64", len(points), len(points[0]))
	}
	// The fixture is the generator's output verbatim — regenerate with
	//   synthgen -dataset highd -k 5 -per 250 -dim 64 -rank 4 -noise 0.2 -seed 1
	gen := adawave.HighDimMixture(5, 250, 64, 4, 0.2, 1)
	for i, row := range gen.Points {
		for j := range row {
			if points[i][j] != row[j] {
				t.Fatalf("fixture drifted from the generator at row %d dim %d: file %v, generator %v (regenerate with cmd/synthgen)", i, j, points[i][j], row[j])
			}
		}
	}

	for _, tc := range []struct {
		name  string
		emb   adawave.Embedding
		scale int
		floor float64
	}{
		{"pca", adawave.PCA(4), 12, 0.80},
		{"rp", adawave.RandomProjection(4, 2), 16, 0.55},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := clusterRows(points, adawave.WithEmbedding(tc.emb), adawave.WithScale(tc.scale))
			if err != nil {
				t.Fatal(err)
			}
			if ami := adawave.AMI(truth, res.Labels); ami < tc.floor {
				t.Fatalf("AMI = %.3f under %s, want ≥ %v", ami, tc.name, tc.floor)
			}
		})
	}
}

// TestImageSegmentationScenario: the pixel-clustering suite. Each fixture
// row is one pixel of a 48×48 four-region synthetic image rendered into
// wavelet-style features (intensity, window means, Haar details, weakly
// scaled coordinates). PCA compresses the correlated appearance features
// onto two components and drops the coordinates; AdaWave recovers the four
// regions, and the fully-labeled protocol (no true noise class) reassigns
// noise points to the nearest centroid before scoring.
func TestImageSegmentationScenario(t *testing.T) {
	points, truth := loadFixture(t, "testdata/image_seg.csv")
	if len(points) != 48*48 || len(points[0]) != 7 {
		t.Fatalf("fixture shape %d×%d, want %d×7", len(points), len(points[0]), 48*48)
	}
	// Regenerate with: synthgen -dataset imageseg -size 48 -seed 3
	gen := adawave.ImageSegmentation(48, 3)
	for i, row := range gen.Points {
		for j := range row {
			if points[i][j] != row[j] {
				t.Fatalf("fixture drifted from the generator at row %d dim %d (regenerate with cmd/synthgen)", i, j)
			}
		}
	}

	res, err := clusterRows(points, adawave.WithEmbedding(adawave.PCA(2)), adawave.WithScale(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 4 {
		t.Fatalf("found %d segments, want the 4 image regions", res.NumClusters)
	}
	labels := adawave.AssignNoiseToNearest(points, res.Labels, 3)
	if ami := adawave.AMI(truth, labels); ami < 0.7 {
		t.Fatalf("segmentation AMI = %.3f, want ≥ 0.7", ami)
	}
}

// TestEmbeddingFacadeMatchesManualProjection extends the equivalence gate
// across the facade: on the dermatology stand-in and both scenario
// fixtures, clustering raw rows under WithEmbedding must be bit-identical
// to manually fitting the same embedder, projecting, and clustering the
// projected rows without one. The /flat half clusters one-shot (a transient
// flat base grid); the /packed half streams the rows through a Session as
// one batch (a packed live grid, the embedder fitted on the same rows).
func TestEmbeddingFacadeMatchesManualProjection(t *testing.T) {
	derm, err := adawave.StandIn("dermatology", 2)
	if err != nil {
		t.Fatal(err)
	}
	highd, _ := loadFixture(t, "testdata/highd64.csv")
	imageSeg, _ := loadFixture(t, "testdata/image_seg.csv")
	for _, tc := range []struct {
		name   string
		points [][]float64
		emb    adawave.Embedding
		scale  int
	}{
		{"dermatology", derm.Points, adawave.PCA(6), 16},
		{"highd64", highd, adawave.PCA(4), 12},
		{"highd64-rp", highd, adawave.RandomProjection(4, 2), 16},
		{"image-seg", imageSeg, adawave.PCA(2), 16},
	} {
		for _, packed := range []bool{false, true} {
			name := tc.name + "/flat"
			if packed {
				name = tc.name + "/packed"
			}
			t.Run(name, func(t *testing.T) {
				ds, err := adawave.FromSlices(tc.points)
				if err != nil {
					t.Fatal(err)
				}
				emb, err := embed.New(tc.emb)
				if err != nil {
					t.Fatal(err)
				}
				if err := emb.Fit(ds); err != nil {
					t.Fatal(err)
				}
				pds, err := emb.Transform(ds)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := adawave.New(adawave.WithScale(tc.scale))
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.ClusterDatasetContext(context.Background(), pds)
				if err != nil {
					t.Fatal(err)
				}
				c, err := adawave.New(adawave.WithEmbedding(tc.emb), adawave.WithScale(tc.scale))
				if err != nil {
					t.Fatal(err)
				}
				var got *adawave.Result
				if packed {
					sess := c.NewSession()
					if err := sess.AppendContext(context.Background(), ds); err != nil {
						t.Fatal(err)
					}
					got, err = sess.ResultContext(context.Background())
				} else {
					got, err = c.ClusterDatasetContext(context.Background(), ds)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got.NumClusters != want.NumClusters || got.Threshold != want.Threshold {
					t.Fatalf("got %d clusters at %v, want %d at %v", got.NumClusters, got.Threshold, want.NumClusters, want.Threshold)
				}
				for i := range want.Labels {
					if got.Labels[i] != want.Labels[i] {
						t.Fatalf("label %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
					}
				}
			})
		}
	}
}
