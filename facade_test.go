package adawave_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"adawave"
)

func TestStandInRegistry(t *testing.T) {
	names := adawave.StandInNames()
	if len(names) != 9 {
		t.Fatalf("expected 9 stand-ins, got %d", len(names))
	}
	ds, err := adawave.StandIn("iris", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 150 || ds.Dim() != 4 {
		t.Fatalf("iris stand-in is %dx%d", ds.N(), ds.Dim())
	}
	if _, err := adawave.StandIn("unknown", 1); err == nil {
		t.Fatal("unknown stand-in should error")
	}
}

func TestRoadmapDataFacade(t *testing.T) {
	ds := adawave.RoadmapData(5000, 1)
	if ds.Dim() != 2 {
		t.Fatalf("roadmap dim = %d", ds.Dim())
	}
	cities := adawave.RoadmapCityList()
	if len(cities) == 0 || cities[0].Name != "Aalborg" {
		t.Fatalf("city list unexpected: %+v", cities)
	}
	if ds.NumClusters() != len(cities) {
		t.Fatalf("clusters = %d, want %d", ds.NumClusters(), len(cities))
	}
}

func TestScatterPlotFacade(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}}
	out := adawave.ScatterPlot(pts, []int{0, adawave.NoiseLabel}, 16, 8)
	if !strings.Contains(out, "A") || !strings.Contains(out, ".") {
		t.Fatalf("scatter output missing glyphs:\n%s", out)
	}
}

func TestLineChartFacade(t *testing.T) {
	out := adawave.LineChart([]adawave.Line{
		{Name: "ami", X: []float64{0, 1}, Y: []float64{0.9, 0.5}},
	}, 24, 8)
	if !strings.Contains(out, "A = ami") {
		t.Fatalf("line chart missing legend:\n%s", out)
	}
	curve := adawave.CurvePlot("density", []float64{5, 3, 1}, 24, 6)
	if !strings.Contains(curve, "A = density") {
		t.Fatalf("curve missing legend:\n%s", curve)
	}
}

func TestClusterRejectsNonFinite(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, math.NaN()}, {2, 2}}
	if _, err := clusterRows(pts); !errors.Is(err, adawave.ErrInvalidInput) {
		t.Fatalf("NaN coordinate: got %v, want ErrInvalidInput", err)
	}
	pts[1][1] = math.Inf(1)
	if _, err := clusterRows(pts); !errors.Is(err, adawave.ErrInvalidInput) {
		t.Fatalf("Inf coordinate: got %v, want ErrInvalidInput", err)
	}
}

// TestClusterRejectsRagged: ragged rows are the caller's to fix, so they
// classify under the ErrInvalidInput root like every other input fault, and
// nothing reaches the clusterer.
func TestClusterRejectsRagged(t *testing.T) {
	ds, err := adawave.FromSlices([][]float64{{0, 0}, {1}})
	if !errors.Is(err, adawave.ErrInvalidInput) {
		t.Fatalf("ragged rows: got %v, want ErrInvalidInput", err)
	}
	if ds != nil {
		t.Fatal("ragged rows must not yield a dataset")
	}
	c, err := adawave.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClusterDatasetContext(context.Background(), ds); !errors.Is(err, adawave.ErrNoPoints) {
		t.Fatalf("nil dataset: got %v, want ErrNoPoints", err)
	}
}

func TestHighDimensionalHaarFlow(t *testing.T) {
	// The documented recipe for high-dimensional data: auto scale + Haar.
	ds, err := adawave.StandIn("dermatology", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := adawave.DefaultConfig()
	cfg.Scale = 0
	cfg.Basis = adawave.HaarBasis()
	res, err := clusterRows(ds.Points, adawave.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	labels := adawave.AssignNoiseToNearest(ds.Points, res.Labels, 3)
	if ami := adawave.AMI(ds.Labels, labels); ami < 0.7 {
		t.Fatalf("AMI = %v on dermatology stand-in, want ≥ 0.7", ami)
	}
}

func TestHighDimensionalLongFilterFailsLoudly(t *testing.T) {
	// The same flow with the default CDF(2,2) must error (densification
	// guard), not hang.
	ds, err := adawave.StandIn("dermatology", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := adawave.DefaultConfig()
	cfg.Scale = 0
	if _, err := clusterRows(ds.Points, adawave.WithConfig(cfg)); err == nil {
		t.Fatal("expected a densification error with a 5-tap filter in 33-D")
	} else if !strings.Contains(err.Error(), "haar") {
		t.Fatalf("error should point at haar: %v", err)
	}
}

func TestSyntheticGeneratorsFacade(t *testing.T) {
	ev := adawave.SyntheticEvaluation(100, 0.4, 1)
	if ev.NumClusters() != 5 {
		t.Fatalf("evaluation clusters = %d", ev.NumClusters())
	}
	re := adawave.RunningExample(1)
	if re.NumClusters() != 5 {
		t.Fatalf("running example clusters = %d", re.NumClusters())
	}
	bl := adawave.Blobs(3, 40, 2, 0.01, 1)
	if bl.NumClusters() != 3 || bl.N() != 120 {
		t.Fatalf("blobs shape %d/%d", bl.NumClusters(), bl.N())
	}
}
