package adawave

import (
	"context"
	"sync"
	"testing"

	"adawave/internal/pointset"
)

// TestSessionFacadeMatchesOneShot: the exported streaming Session must
// reproduce the one-shot ClusterDatasetContext bit for bit after batched
// appends and removals, with concurrent readers (the facade rendering of the
// internal/core streaming equivalence gate, race-exercised in CI).
func TestSessionFacadeMatchesOneShot(t *testing.T) {
	data := SyntheticEvaluation(300, 0.6, 4)
	ds := data.Flat()

	ctx := context.Background()
	clusterer, err := New(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	sess := clusterer.NewSession()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.ResultContext(ctx)
				if err == nil && res != nil {
					_ = res.Labels[0]
				}
			}
		}()
	}
	for off := 0; off < len(data.Points); off += 777 {
		end := off + 777
		if end > len(data.Points) {
			end = len(data.Points)
		}
		if err := sess.AppendContext(ctx, pointset.MustFromSlices(data.Points[off:end])); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if sess.Len() != ds.N || sess.Dim() != ds.D {
		t.Fatalf("shape: got %d/%d, want %d/%d", sess.Len(), sess.Dim(), ds.N, ds.D)
	}
	want, err := clusterer.ClusterDatasetContext(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.LabelsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Labels) {
		t.Fatalf("labels: got %d, want %d", len(got), len(want.Labels))
	}
	for i := range want.Labels {
		if got[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, got[i], want.Labels[i])
		}
	}
	cells, err := sess.CellsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cells != want.CellsQuantized {
		t.Fatalf("cells: got %d, want %d", cells, want.CellsQuantized)
	}

	// Remove the first 100 points; the session must now match the one-shot
	// run over the survivors.
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	if err := sess.RemoveContext(ctx, idx); err != nil {
		t.Fatal(err)
	}
	survivors, err := FromSlices(data.Points[100:])
	if err != nil {
		t.Fatal(err)
	}
	wantAfter, err := clusterer.ClusterDatasetContext(ctx, survivors)
	if err != nil {
		t.Fatal(err)
	}
	gotAfter, err := sess.ResultContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gotAfter.NumClusters != wantAfter.NumClusters {
		t.Fatalf("clusters after removal: got %d, want %d", gotAfter.NumClusters, wantAfter.NumClusters)
	}
	for i := range wantAfter.Labels {
		if gotAfter.Labels[i] != wantAfter.Labels[i] {
			t.Fatalf("label %d after removal: got %d, want %d", i, gotAfter.Labels[i], wantAfter.Labels[i])
		}
	}

	// Multi-resolution from the live grid matches the one-shot pass.
	wantMulti, err := clusterer.ClusterMultiResolutionDatasetContext(ctx, survivors, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotMulti, err := sess.MultiResolutionContext(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMulti) != len(wantMulti) {
		t.Fatalf("levels: got %d, want %d", len(gotMulti), len(wantMulti))
	}
	for l := range wantMulti {
		for i := range wantMulti[l].Labels {
			if gotMulti[l].Labels[i] != wantMulti[l].Labels[i] {
				t.Fatalf("level %d label %d: got %d, want %d", l+1, i, gotMulti[l].Labels[i], wantMulti[l].Labels[i])
			}
		}
	}
}

// TestSessionFacadeValidation covers the exported error surface.
func TestSessionFacadeValidation(t *testing.T) {
	ctx := context.Background()
	bad := DefaultConfig()
	bad.Scale = 1
	if _, err := New(WithConfig(bad)); err == nil {
		t.Fatal("invalid config must error")
	}
	clusterer, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sess := clusterer.NewSession()
	if _, err := sess.LabelsContext(ctx); err == nil {
		t.Fatal("empty session read must error")
	}
	if sess.Config().Scale != DefaultConfig().Scale {
		t.Fatal("config must round-trip")
	}
}
