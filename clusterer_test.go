package adawave

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"adawave/internal/oracle"
	"adawave/internal/synth"
)

// TestClustererConcurrentMatchesSequential runs many concurrent
// ClusterDatasetContext calls on one shared Clusterer and asserts
// label-for-label equality with the sequential oracle.Cluster output on the
// running-example dataset. The CI race job runs this test under -race to
// exercise the parallel paths.
func TestClustererConcurrentMatchesSequential(t *testing.T) {
	ds := synth.RunningExampleSized(600, 1)
	cfg := DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat := ds.Flat()
	c, err := New(WithConfig(cfg)) // all processors
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := c.ClusterDatasetContext(context.Background(), flat)
				if err != nil {
					errs <- err
					return
				}
				if got.Threshold != want.Threshold {
					errs <- fmt.Errorf("threshold: want %v, got %v", want.Threshold, got.Threshold)
					return
				}
				if got.NumClusters != want.NumClusters {
					errs <- fmt.Errorf("clusters: want %d, got %d", want.NumClusters, got.NumClusters)
					return
				}
				for i := range want.Labels {
					if want.Labels[i] != got.Labels[i] {
						errs <- fmt.Errorf("label %d: want %d, got %d", i, want.Labels[i], got.Labels[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClustererMultiResolution smoke-checks the facade's concurrent
// multi-resolution path against the oracle run at each level.
func TestClustererMultiResolution(t *testing.T) {
	ds := synth.RunningExampleSized(300, 1)
	cfg := DefaultConfig()
	want := make([]*Result, 3)
	for l := range want {
		lcfg := cfg
		lcfg.Levels = l + 1
		res, err := oracle.Cluster(ds.Points, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		want[l] = res
	}
	c, err := New(WithConfig(cfg), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ClusterMultiResolutionDatasetContext(context.Background(), ds.Flat(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("levels: want %d, got %d", len(want), len(got))
	}
	for l := range want {
		for i := range want[l].Labels {
			if want[l].Labels[i] != got[l].Labels[i] {
				t.Fatalf("level %d label %d: want %d, got %d", l+1, i, want[l].Labels[i], got[l].Labels[i])
			}
		}
	}
}

// TestNewValidates mirrors the config validation of the sequential entry
// points.
func TestNewValidates(t *testing.T) {
	if _, err := New(WithConfig(Config{})); err == nil {
		t.Fatal("zero config must not validate")
	}
	c, err := New(WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", c.Workers())
	}
}
