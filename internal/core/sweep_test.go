package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"adawave/internal/core"
	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// sweepFixture is one dataset of the config sweep. With an embedding, the
// oracle clusters the rows the fitted embedder projects.
type sweepFixture struct {
	name  string
	ds    *pointset.Dataset
	scale int // 0: automatic
	emb   embed.Spec
}

// TestConfigSweepMatchesOracle widens "bit-identical on every path" from a
// few fixtures to the config space: every basis × levels 0–2 ×
// connectivity × threshold strategy, on a 2-D fixture, a 3-D fixture at
// the automatic scale and an 8-D fixture through a random projection, runs
// through one-shot at 1 and 3 workers, the out-of-core path under a random
// chunk and spill budget, a Session fed a random append split and then a
// random removal, and a checkpoint→restore of that Session. Each result
// must equal oracle.Cluster on the same rows — or, after the removal, on
// the survivors — field for field.
func TestConfigSweepMatchesOracle(t *testing.T) {
	fixtures := []sweepFixture{
		{"2d", synth.Evaluation(150, 0.5, 1).Flat(), 32, embed.Spec{}},
		{"3d", synth.Blobs(3, 150, 3, 0.08, 2).Flat(), 0, embed.Spec{}},
		{"rp", synth.Blobs(4, 100, 8, 0.3, 3).Flat(), 32, embed.Spec{Kind: embed.KindRP, K: 3, Seed: 7}},
	}
	thresholds := []core.ThresholdStrategy{
		core.ThreeSegmentFit{},
		core.SecondKnee{},
		core.QuantileThreshold{Q: 0.7},
		core.FixedThreshold{Value: 1.5},
	}
	conns := map[grid.Connectivity]string{grid.Faces: "faces", grid.Full: "full"}
	rng := rand.New(rand.NewSource(1))
	spillDir := t.TempDir()
	for _, fx := range fixtures {
		rows := sweepRows(t, fx)
		for _, b := range wavelet.Bases() {
			for levels := 0; levels <= 2; levels++ {
				for _, conn := range []grid.Connectivity{grid.Faces, grid.Full} {
					for _, thr := range thresholds {
						cfg := core.DefaultConfig()
						cfg.Scale, cfg.Basis, cfg.Levels = fx.scale, b, levels
						cfg.Connectivity, cfg.Threshold, cfg.Embedding = conn, thr, fx.emb
						name := fmt.Sprintf("%s/%s/levels=%d/%s/%s", fx.name, b.Name, levels, conns[conn], thr.Name())
						t.Run(name, func(t *testing.T) {
							sweepConfig(t, rng, fx.ds, rows, cfg, spillDir)
						})
					}
				}
			}
		}
	}
}

// sweepRows returns the rows the oracle clusters for fx: the fixture's own
// rows, or their projection through the fitted embedder.
func sweepRows(t *testing.T, fx sweepFixture) [][]float64 {
	t.Helper()
	if !fx.emb.Enabled() {
		return fx.ds.Rows()
	}
	emb, err := embed.New(fx.emb)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Fit(fx.ds); err != nil {
		t.Fatal(err)
	}
	pds, err := emb.Transform(fx.ds)
	if err != nil {
		t.Fatal(err)
	}
	return pds.Rows()
}

// sweepConfig runs one configuration through every path and compares each
// result to the oracle.
func sweepConfig(t *testing.T, rng *rand.Rand, ds *pointset.Dataset, rows [][]float64, cfg core.Config, spillDir string) {
	ctx := context.Background()
	ocfg := cfg
	ocfg.Embedding = embed.Spec{}
	want, err := oracle.Cluster(rows, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	var eng *core.Engine
	for _, workers := range []int{1, 3} {
		if eng, err = core.NewEngine(cfg, workers); err != nil {
			t.Fatal(err)
		}
		got, err := eng.ClusterDatasetContext(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, want, got)
	}

	ext := core.ExternalOptions{
		ChunkPoints: 1 + rng.Intn(ds.N),
		SpillBytes:  []int64{1, 1 << 12, 1 << 30}[rng.Intn(3)],
		TempDir:     spillDir,
	}
	got, err := eng.ClusterDatasetExternal(ctx, ds, ext)
	if err != nil {
		t.Fatalf("external %+v: %v", ext, err)
	}
	assertResultsEqual(t, want, got)

	sess := eng.NewSession()
	for off := 0; off < ds.N; {
		n := min(1+rng.Intn(ds.N/3), ds.N-off)
		if err := sess.AppendContext(ctx, &pointset.Dataset{Data: ds.Data[off*ds.D : (off+n)*ds.D], N: n, D: ds.D}); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if got, err = sess.ResultContext(ctx); err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)

	removed := rng.Perm(ds.N)[:1+rng.Intn(ds.N/5)]
	if err := sess.RemoveContext(ctx, removed); err != nil {
		t.Fatal(err)
	}
	gone := make([]bool, ds.N)
	for _, i := range removed {
		gone[i] = true
	}
	var survivors [][]float64
	for i, row := range rows {
		if !gone[i] {
			survivors = append(survivors, row)
		}
	}
	if want, err = oracle.Cluster(survivors, ocfg); err != nil {
		t.Fatal(err)
	}
	if got, err = sess.ResultContext(ctx); err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)

	var buf bytes.Buffer
	if err := sess.CheckpointContext(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreSession(&buf, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = restored.ResultContext(ctx); err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, want, got)
}
