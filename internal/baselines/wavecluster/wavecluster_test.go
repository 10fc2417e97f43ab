package wavecluster

import (
	"context"
	"testing"

	"adawave/internal/core"
	"adawave/internal/metrics"
	"adawave/internal/synth"
)

func TestCleanBlobs(t *testing.T) {
	// WaveCluster's fixed absolute threshold (5 points/cell) needs
	// realistic densities; 1000 points per blob matches the paper's
	// regime.
	ds := synth.Blobs(2, 1000, 2, 0.02, 1)
	res, err := Cluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := core.AssignNoiseToNearest(ds.Points, res.Labels, 2)
	if ami := metrics.AMI(ds.Labels, full); ami < 0.9 {
		t.Fatalf("AMI = %v on clean blobs (clusters=%d)", ami, res.NumClusters)
	}
}

func TestLowNoiseWorks(t *testing.T) {
	ds := synth.Evaluation(3000, 0.15, 2)
	res, err := Cluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ami := metrics.AMINonNoise(ds.Labels, res.Labels, synth.NoiseLabel)
	if ami < 0.5 {
		t.Fatalf("AMI = %v at 15%% noise, want ≥ 0.5", ami)
	}
}

func TestWorseThanAdaWaveAtHighNoise(t *testing.T) {
	// The paper's headline ablation: without the adaptive threshold,
	// WaveCluster collapses once the background noise density crosses its
	// fixed cutoff (here ≈88 % noise for 3000-point clusters), while
	// AdaWave holds.
	ds := synth.Evaluation(3000, 0.88, 3)
	wc, err := Cluster(ds.Points, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := eng.ClusterDatasetContext(context.Background(), ds.Flat())
	if err != nil {
		t.Fatal(err)
	}
	amiWC := metrics.AMINonNoise(ds.Labels, wc.Labels, synth.NoiseLabel)
	amiAW := metrics.AMINonNoise(ds.Labels, aw.Labels, synth.NoiseLabel)
	if amiAW <= amiWC {
		t.Fatalf("AdaWave (%v) should beat WaveCluster (%v) at 80%% noise", amiAW, amiWC)
	}
}

func TestDefaultsApplied(t *testing.T) {
	ds := synth.Blobs(2, 100, 2, 0.05, 4)
	// Zero config: all defaults should be filled in.
	res, err := Cluster(ds.Points, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale == 0 {
		t.Fatal("scale not defaulted")
	}
}
