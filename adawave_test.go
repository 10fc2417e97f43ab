package adawave_test

import (
	"context"
	"testing"

	"adawave"
)

// The facade tests exercise the library exactly the way an external user
// would: only through the public API.

// clusterRows is the [][]float64 caller's path through the facade: copy the
// rows with FromSlices, then ClusterDatasetContext on a clusterer built from
// opts.
func clusterRows(points [][]float64, opts ...adawave.Option) (*adawave.Result, error) {
	ds, err := adawave.FromSlices(points)
	if err != nil {
		return nil, err
	}
	c, err := adawave.New(opts...)
	if err != nil {
		return nil, err
	}
	return c.ClusterDatasetContext(context.Background(), ds)
}

func TestQuickstartFlow(t *testing.T) {
	ds := adawave.SyntheticEvaluation(1000, 0.5, 1)
	res, err := clusterRows(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 3 || res.NumClusters > 8 {
		t.Fatalf("clusters = %d, want ≈5", res.NumClusters)
	}
	if got := adawave.AMINonNoise(ds.Labels, res.Labels, adawave.NoiseLabel); got < 0.55 {
		t.Fatalf("AMI = %v", got)
	}
}

func TestFacadeBases(t *testing.T) {
	if len(adawave.Bases()) != 5 {
		t.Fatalf("expected 5 built-in bases, got %d", len(adawave.Bases()))
	}
	b, err := adawave.BasisByName("haar")
	if err != nil || b.Name != "haar" {
		t.Fatalf("BasisByName: %v %v", b.Name, err)
	}
	names := map[string]string{
		adawave.HaarBasis().Name:  "haar",
		adawave.DB4Basis().Name:   "db4",
		adawave.DB6Basis().Name:   "db6",
		adawave.CDF22Basis().Name: "cdf22",
		adawave.CDF13Basis().Name: "cdf13",
	}
	for got, want := range names {
		if got != want {
			t.Fatalf("basis constructor returned %q, want %q", got, want)
		}
	}
	if _, err := adawave.BasisByName("unknown"); err == nil {
		t.Fatal("unknown basis should error")
	}
}

func TestFacadeMetrics(t *testing.T) {
	u := []int{0, 0, 1, 1}
	if adawave.AMI(u, u) < 0.999 || adawave.NMI(u, u) < 0.999 || adawave.ARI(u, u) < 0.999 {
		t.Fatal("identical partitions should score 1")
	}
}

func TestFacadeMultiResolution(t *testing.T) {
	ds := adawave.Blobs(3, 300, 2, 0.02, 2)
	c, err := adawave.New()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.ClusterMultiResolutionDatasetContext(context.Background(), ds.Flat(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("levels = %d", len(rs))
	}
}

func TestFacadeAutoScale(t *testing.T) {
	if s := adawave.AutoScale(28000, 2); s != 128 {
		t.Fatalf("AutoScale(28000,2) = %d, want 128", s)
	}
	if s := adawave.AutoScale(366, 33); s != 4 {
		t.Fatalf("AutoScale(366,33) = %d, want 4", s)
	}
	cfg := adawave.DefaultConfig()
	cfg.Scale = 0 // auto
	ds := adawave.Blobs(2, 200, 2, 0.02, 3)
	if _, err := clusterRows(ds.Points, adawave.WithConfig(cfg)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAssignNoise(t *testing.T) {
	ds := adawave.Blobs(2, 400, 2, 0.02, 4)
	res, err := clusterRows(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	full := adawave.AssignNoiseToNearest(ds.Points, res.Labels, 2)
	for _, l := range full {
		if l == adawave.Noise {
			t.Fatal("noise remained after reassignment")
		}
	}
}
