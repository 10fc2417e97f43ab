package main

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"adawave"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// A single corrupted label fails the run: the check records the failure
// and the result reads correct=false.
func TestCorruptedLabelFailsTheRun(t *testing.T) {
	ref := []int{0, 0, 1, -1, 2, 1}
	corrupted := append([]int(nil), ref...)
	corrupted[3] = 2

	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "success_rate", Unit: "ratio"}}}
	for _, c := range []struct {
		labels []int
		want   bool
	}{{ref, true}, {corrupted, false}} {
		out := newOutcome()
		out.tally.record(nil)
		out.check("labels identical across calls", equalLabels(ref, ref))
		out.check("labels identical across calls", equalLabels(ref, c.labels))
		res, _, err := report(spec, out, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != c.want {
			t.Errorf("labels %v: correct=%v, want %v", c.labels, res.Correct, c.want)
		}
	}
}

func TestRecordedOutputsCatchCorruption(t *testing.T) {
	labels := []int{0, 1, 1, -1}
	ami := 0.5
	e := expectations{"w": {"7": {AMI: &ami, Labels: labelDigest(labels)}}}
	if err := e.check("w", 7, labels, &ami); err != nil {
		t.Fatalf("recorded outputs: %v", err)
	}
	corrupted := []int{0, 1, 0, -1}
	if err := e.check("w", 7, corrupted, &ami); err == nil {
		t.Error("a corrupted label vector passed the recorded digest")
	}
	other := 0.25
	if err := e.check("w", 7, labels, &other); err == nil {
		t.Error("a different AMI passed the recorded value")
	}
	if err := e.check("w", 8, labels, &ami); !errors.Is(err, errUnrecorded) {
		t.Errorf("unrecorded seed: %v, want errUnrecorded", err)
	}
}

// The traced replay must measure the same work as the engine: its labels
// equal the engine's for the in-RAM, embedded and external paths.
func TestReplayMatchesEngine(t *testing.T) {
	ctx := context.Background()
	mixture := func(t *testing.T) *pointset.Dataset {
		path := filepath.Join(t.TempDir(), "m.awds")
		w, err := adawave.CreateMappedDataset(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := synth.StreamMixture(40_000, 2, 4, 0.3, 3, w.AppendRow); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := adawave.OpenMappedDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m.Dataset()
	}
	for _, c := range []struct {
		name string
		opts []adawave.Option
		ds   func(t *testing.T) *pointset.Dataset
		ext  *adawave.ExternalOptions
	}{
		{"noisy-2d", nil, func(*testing.T) *pointset.Dataset { return synth.Evaluation(2000, 0.75, 1).Flat() }, nil},
		{"highdim-embed", []adawave.Option{adawave.WithEmbedding(adawave.PCA(4)), adawave.WithScale(64)},
			func(*testing.T) *pointset.Dataset { return synth.HighDimMixture(4, 2000, 16, 4, 0.5, 2).Flat() }, nil},
		{"external", nil, mixture, &adawave.ExternalOptions{MaxResidentBytes: 64 << 20, ChunkPoints: 7000, SpillBytes: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds := c.ds(t)
			ext := c.ext
			if ext != nil {
				opts := *ext
				opts.TempDir = t.TempDir()
				ext = &opts
			}
			cl, err := adawave.New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := call(ctx, cl, ds, ext)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			got, cnt, err := replayCluster(ctx, tr, 1, cl.Config(), runtime.GOMAXPROCS(0), ds, ext)
			if err != nil {
				t.Fatal(err)
			}
			if err := equalLabels(want.Labels, got); err != nil {
				t.Fatalf("replay differs from the engine: %v", err)
			}
			if cnt.cellsQuantized != want.CellsQuantized || cnt.cellsKept != want.CellsKept || cnt.clusters != want.NumClusters {
				t.Errorf("replay counts %+v, engine quantized %d kept %d clusters %d",
					cnt, want.CellsQuantized, want.CellsKept, want.NumClusters)
			}
			self := tr.selfMs()
			for _, name := range []string{spanCall, spanQuantize, spanTransform, spanThreshold, spanConnect, spanAssign} {
				if len(self[name]) != 1 {
					t.Errorf("span %s recorded %d times, want once", name, len(self[name]))
				}
			}
		})
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Workload: "w", Host: host{NumCPU: 2, GOMAXPROCS: 2, CPU: "x", GoVersion: "go1.24.0"}}
	b := a
	if err := sameHost([]record{a, b}); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	for _, change := range []func(*host){
		func(h *host) { h.NumCPU = 4 },
		func(h *host) { h.GOMAXPROCS = 1 },
		func(h *host) { h.CPU = "y" },
		func(h *host) { h.GoVersion = "go1.23.0" },
	} {
		c := a
		change(&c.Host)
		if err := sameHost([]record{a, b, c}); err == nil {
			t.Errorf("host %+v compared with %+v", c.Host, a.Host)
		}
	}
}
