package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adawave/internal/datasets"
	"adawave/internal/grid"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// The streaming equivalence gate (exercised with -race in CI): a Session
// fed any sequence of random batches — with removals and concurrent
// readers — must hold exactly the one-shot grid and reproduce the one-shot
// ClusterDataset result bit for bit.

// sessionFixture is one dataset + config the property test streams.
type sessionFixture struct {
	name string
	pts  [][]float64
	cfg  Config
}

func sessionFixtures(t *testing.T) []sessionFixture {
	t.Helper()
	derm, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	dermCfg := DefaultConfig()
	dermCfg.Scale = 0 // automatic scale: changes as the stream grows
	dermCfg.Basis = wavelet.Haar()
	// The live grid is always packed. Every fixture still runs twice: the
	// /flat half carries the deprecated PackedCells=false, which core
	// ignores, so a configuration from before the flat live grid was
	// retired must reproduce the /packed half bit for bit.
	base := []sessionFixture{
		{"fig2", synth.RunningExampleSized(500, 1).Points, DefaultConfig()},
		{"fig7", synth.Evaluation(400, 0.8, 1).Points, DefaultConfig()},
		{"dermatology", derm.Points, dermCfg},
	}
	out := make([]sessionFixture, 0, 2*len(base))
	for _, fx := range base {
		packed, flat := fx.cfg, fx.cfg
		packed.PackedCells, flat.PackedCells = true, false
		out = append(out,
			sessionFixture{fx.name + "/packed", fx.pts, packed},
			sessionFixture{fx.name + "/flat", fx.pts, flat})
	}
	return out
}

// randomBatches splits n into a random sequence of batch sizes.
func randomBatches(n int, rng *rand.Rand) []int {
	var out []int
	for n > 0 {
		b := 1 + rng.Intn(n)
		if rng.Intn(3) > 0 && n > 10 {
			b = 1 + rng.Intn(n/3+1) // mostly small batches, occasionally huge
		}
		out = append(out, b)
		n -= b
	}
	return out
}

// assertSessionGrid asserts the session's live grid equals the one-shot
// quantization of its current points, cell for cell and id for id.
func assertSessionGrid(t *testing.T, s *Session) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, err := s.syncLocked(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), s.ds, cfg.Scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, wantIDs, err := q.QuantizeDatasetCtx(context.Background(), s.ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := s.base.Unpack()
	if want.Len() != live.Len() {
		t.Fatalf("live grid has %d cells, one-shot %d", live.Len(), want.Len())
	}
	d := want.Dim()
	for i := 0; i < want.Len(); i++ {
		for j := 0; j < d; j++ {
			if want.Coords[i*d+j] != live.Coords[i*d+j] {
				t.Fatalf("cell %d coords diverge: one-shot %v, live %v", i, want.CellCoords(i), live.CellCoords(i))
			}
		}
		if want.Vals[i] != live.Vals[i] {
			t.Fatalf("cell %d mass: one-shot %v, live %v", i, want.Vals[i], live.Vals[i])
		}
	}
	for i, id := range wantIDs {
		if s.ids[i] != id {
			t.Fatalf("point %d cell id: one-shot %d, live %d", i, id, s.ids[i])
		}
	}
}

// TestSessionStreamingEquivalence: split every fixture into random batch
// sequences, append them (reading labels at random checkpoints, with
// concurrent readers hammering the session), and assert grid equality and
// label-for-label agreement with the one-shot ClusterDataset at the end of
// every round.
func TestSessionStreamingEquivalence(t *testing.T) {
	for _, fx := range sessionFixtures(t) {
		for round := int64(0); round < 3; round++ {
			t.Run(fmt.Sprintf("%s/round=%d", fx.name, round), func(t *testing.T) {
				rng := rand.New(rand.NewSource(round*31 + 17))
				ds := pointset.MustFromSlices(fx.pts)
				eng, err := NewEngine(fx.cfg, 1+int(round))
				if err != nil {
					t.Fatal(err)
				}
				sess := eng.NewSession()

				// Concurrent readers: hammer Labels/Result while the writer
				// appends. Their view is some consistent past state; the
				// race detector checks the locking discipline.
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for r := 0; r < 3; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if r == 0 {
								// One reader exercises the multi-level
								// path, which computes on a private
								// snapshot outside the session lock.
								_, _ = sess.MultiResolutionContext(context.Background(), 2)
								continue
							}
							if res, err := sess.Result(); err == nil && res != nil {
								_ = res.Labels[len(res.Labels)-1] // read through the shared slice
							}
						}
					}(r)
				}

				off := 0
				for _, b := range randomBatches(ds.N, rng) {
					batch := &pointset.Dataset{Data: ds.Data[off*ds.D : (off+b)*ds.D], N: b, D: ds.D}
					if err := sess.Append(batch); err != nil {
						t.Fatal(err)
					}
					off += b
					if rng.Intn(4) == 0 {
						if _, err := sess.Labels(); err != nil {
							t.Fatal(err)
						}
					}
				}
				close(stop)
				wg.Wait()

				assertSessionGrid(t, sess)
				want, err := eng.ClusterDatasetContext(context.Background(), ds)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.Result()
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, want, got)
			})
		}
	}
}

// TestSessionRemoveEquivalence: interleave appends with random removals
// (interior points exercising the tombstone path, boundary points forcing
// the rebuild path) and assert the session still matches the one-shot run
// over the surviving points.
func TestSessionRemoveEquivalence(t *testing.T) {
	for _, fx := range sessionFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			ds := pointset.MustFromSlices(fx.pts)
			eng, err := NewEngine(fx.cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			sess := eng.NewSession()

			// Model the surviving point set as a slice of row indices.
			var live []int
			off := 0
			for _, b := range randomBatches(ds.N, rng) {
				batch := &pointset.Dataset{Data: ds.Data[off*ds.D : (off+b)*ds.D], N: b, D: ds.D}
				if err := sess.Append(batch); err != nil {
					t.Fatal(err)
				}
				for i := off; i < off+b; i++ {
					live = append(live, i)
				}
				off += b
				if rng.Intn(3) == 0 {
					if _, err := sess.Labels(); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(2) == 0 && len(live) > 20 {
					nrm := 1 + rng.Intn(len(live)/10+1)
					perm := rng.Perm(len(live))[:nrm]
					if err := sess.Remove(perm); err != nil {
						t.Fatal(err)
					}
					// Mirror the removal in the model (descending order so
					// earlier deletions don't shift later indices).
					sortDesc(perm)
					for _, p := range perm {
						live = append(live[:p], live[p+1:]...)
					}
				}
			}
			union := pointset.New(ds.D, len(live))
			for _, i := range live {
				union.AppendRow(ds.Row(i))
			}
			assertSessionGrid(t, sess)
			want, err := eng.ClusterDatasetContext(context.Background(), union)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Result()
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, want, got)
		})
	}
}

func sortDesc(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] > a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestSessionMultiResolutionEquivalence: the session's multi-resolution
// read must match the one-shot multi-resolution pass level for level after
// streaming appends.
func TestSessionMultiResolutionEquivalence(t *testing.T) {
	ds := synth.RunningExampleSized(400, 1)
	flat := ds.Flat()
	eng, err := NewEngine(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	rng := rand.New(rand.NewSource(2))
	off := 0
	for _, b := range randomBatches(flat.N, rng) {
		batch := &pointset.Dataset{Data: flat.Data[off*flat.D : (off+b)*flat.D], N: b, D: flat.D}
		if err := sess.Append(batch); err != nil {
			t.Fatal(err)
		}
		off += b
	}
	want, err := eng.ClusterMultiResolutionDatasetContext(context.Background(), flat, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.MultiResolutionContext(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("levels: got %d, want %d", len(got), len(want))
	}
	for l := range want {
		assertResultsEqual(t, want[l], got[l])
	}
	// A single-level read after the multi-resolution pass must still see an
	// intact canonical grid.
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	single, err := eng.ClusterDatasetContext(context.Background(), flat)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, single, res)

	// An absurd level count is clamped to what the grid scale can yield
	// (scale 128 → 7 levels) instead of sizing result slices to it.
	huge, err := sess.MultiResolutionContext(context.Background(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(huge) == 0 || len(huge) > 7 {
		t.Fatalf("clamped levels: got %d", len(huge))
	}
	for l := range want {
		assertResultsEqual(t, want[l], huge[l])
	}
}

// TestSessionValidation covers the mutation-side error paths.
func TestSessionValidation(t *testing.T) {
	sess, err := NewSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Labels(); err == nil {
		t.Fatal("empty session must error on read")
	}
	if err := sess.Append(&pointset.Dataset{Data: []float64{1, 2, 3, 4}, N: 2, D: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(&pointset.Dataset{Data: []float64{1, 2, 3}, N: 1, D: 3}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if err := sess.Remove([]int{2}); err == nil {
		t.Fatal("out-of-range removal must error")
	}
	if err := sess.Remove([]int{0, 0}); err == nil {
		t.Fatal("duplicate removal must error")
	}
	if err := sess.Append(nil); err != nil {
		t.Fatal(err)
	}
	if sess.Len() != 2 || sess.Dim() != 2 {
		t.Fatalf("shape: got %d/%d", sess.Len(), sess.Dim())
	}
}

// TestSessionNonFinite: a NaN appended mid-stream surfaces the quantizer's
// error on the next read, and removing the bad point heals the session.
func TestSessionNonFinite(t *testing.T) {
	sess, err := NewSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	good := synth.RunningExampleSized(100, 3).Flat()
	if err := sess.Append(good); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Labels(); err != nil {
		t.Fatal(err)
	}
	nan := 0.0
	nan /= nan
	if err := sess.Append(&pointset.Dataset{Data: []float64{nan, 0.5}, N: 1, D: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Labels(); err == nil {
		t.Fatal("NaN point must surface the quantizer error on read")
	}
	if err := sess.Remove([]int{sess.Len() - 1}); err != nil {
		t.Fatal(err)
	}
	labels, err := sess.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != good.N {
		t.Fatalf("labels: got %d, want %d", len(labels), good.N)
	}
	eng, err := NewEngine(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.ClusterDatasetContext(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		if labels[i] != want.Labels[i] {
			t.Fatalf("label %d: got %d, want %d", i, labels[i], want.Labels[i])
		}
	}
}
