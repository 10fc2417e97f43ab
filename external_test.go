package adawave_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	adawave "adawave"
)

// TestFacadeExternalMappedRoundTrip drives the whole out-of-core facade:
// stream a dataset into a mapped file, open it, cluster it via
// ClusterDatasetExternalOptions under a small budget, and require
// bit-identical labels to the in-RAM ClusterDatasetContext path.
func TestFacadeExternalMappedRoundTrip(t *testing.T) {
	ds := adawave.RunningExample(17).Flat()
	path := filepath.Join(t.TempDir(), "points.awds")
	w, err := adawave.CreateMappedDataset(path, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N; i++ {
		if err := w.AppendRow(ds.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	c, err := adawave.New(adawave.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ClusterDatasetContext(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := adawave.OpenMappedDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ClusterDatasetExternalOptions(ctx, m.Dataset(), adawave.ExternalOptions{MaxResidentBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != want.NumClusters || got.Threshold != want.Threshold {
		t.Fatalf("external: %d clusters @ %v, want %d @ %v",
			got.NumClusters, got.Threshold, want.NumClusters, want.Threshold)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}

	// Torn file surfaces the typed error through the facade.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := adawave.OpenMappedDataset(path); !errors.Is(err, adawave.ErrCorruptDataset) {
		t.Fatalf("truncated file error %v is not ErrCorruptDataset", err)
	}
}
