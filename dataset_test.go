package adawave_test

// Public-API equivalence tests for the flat Dataset path: the facade's
// Dataset entry points must reproduce the sequential [][]float64 reference
// (oracle.Cluster, run at each level for multi-resolution) label for label (the
// internal equivalence gates live in internal/core; these exercise the
// library the way an external user would).

import (
	"context"
	"errors"
	"testing"

	"adawave"
	"adawave/internal/oracle"
)

func TestDatasetFacadeMatchesSlices(t *testing.T) {
	data := adawave.RunningExample(7)
	c, err := adawave.New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Cluster(data.Points, adawave.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ClusterDatasetContext(context.Background(), data.Flat())
	if err != nil {
		t.Fatal(err)
	}
	if want.NumClusters != got.NumClusters || want.Threshold != got.Threshold {
		t.Fatalf("diverged: %d/%v vs %d/%v",
			want.NumClusters, want.Threshold, got.NumClusters, got.Threshold)
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			t.Fatalf("label %d: want %d, got %d", i, want.Labels[i], got.Labels[i])
		}
	}
}

func TestDatasetFacadeMultiResolution(t *testing.T) {
	data := adawave.SyntheticEvaluation(300, 0.5, 7)
	c, err := adawave.New()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*adawave.Result, 3)
	for l := range want {
		cfg := adawave.DefaultConfig()
		cfg.Levels = l + 1
		res, err := oracle.Cluster(data.Points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[l] = res
	}
	got, err := c.ClusterMultiResolutionDatasetContext(context.Background(), data.Flat(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("levels: want %d, got %d", len(want), len(got))
	}
	for l := range want {
		for i := range want[l].Labels {
			if want[l].Labels[i] != got[l].Labels[i] {
				t.Fatalf("level %d label %d: want %d, got %d",
					l+1, i, want[l].Labels[i], got[l].Labels[i])
			}
		}
	}
}

func TestDatasetBuilders(t *testing.T) {
	ds := adawave.NewDataset(2, 4)
	ds.AppendRow([]float64{0, 0})
	ds.AppendRow([]float64{1, 1})
	if ds.N != 2 || ds.D != 2 {
		t.Fatalf("builder shape: %dx%d", ds.N, ds.D)
	}
	if _, err := adawave.FromSlices([][]float64{{1, 2}, {3}}); !errors.Is(err, adawave.ErrInvalidInput) {
		t.Fatalf("ragged rows: got %v, want ErrInvalidInput", err)
	}
	from, err := adawave.FromSlices([][]float64{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range from.Data {
		if ds.Data[i] != v {
			t.Fatalf("builders diverge at %d: %v vs %v", i, ds.Data[i], v)
		}
	}
}
