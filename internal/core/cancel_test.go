package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// The cancellation gate (exercised with -race in CI): cancelling the
// pipeline at ANY stage boundary must (a) surface an ErrCanceled-tagged
// error, (b) leave the engine/session state intact — pooled buffers
// returned, the session's live grid canonical, pending mutations still
// pending — and (c) change nothing about the eventual result: the next
// uncancelled read is bit-identical to a run that was never cancelled.

// pipelineStages is every boundary the stage hook reports, in order.
var pipelineStages = []string{StageQuantize, StageFold, StageTransform, StageThreshold, StageConnect, StageAssign}

// hookCancelAt installs a stage hook that cancels ctx when the k-th stage
// event fires (k counts every event, whatever its name); the returned
// counter reports how many events fired in total. The caller must
// SetStageHook(nil) afterwards.
func hookCancelAt(cancel context.CancelFunc, k int32) *atomic.Int32 {
	var count atomic.Int32
	SetStageHook(func(string) {
		if count.Add(1) == k {
			cancel()
		}
	})
	return &count
}

// TestEngineCancelAtEveryStage cancels a one-shot ClusterDatasetContext at
// each named stage boundary in turn and asserts the taxonomy error, then
// that the engine still produces the bit-identical reference result.
func TestEngineCancelAtEveryStage(t *testing.T) {
	for _, fx := range sessionFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			ds := pointset.MustFromSlices(fx.pts)
			eng, err := NewEngine(fx.cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.ClusterDatasetContext(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range pipelineStages {
				if target == StageFold {
					continue // sessions only; exercised below
				}
				t.Run(target, func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					SetStageHook(func(st string) {
						if st == target {
							cancel()
						}
					})
					_, err := eng.ClusterDatasetContext(ctx, ds)
					SetStageHook(nil)
					if err == nil {
						t.Fatalf("cancel at %s: no error", target)
					}
					if !errors.Is(err, grid.ErrCanceled) || !errors.Is(err, context.Canceled) {
						t.Fatalf("cancel at %s: error %v not tagged ErrCanceled/context.Canceled", target, err)
					}
					got, err := eng.ClusterDatasetContext(context.Background(), ds)
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, want, got)
				})
			}

			// A deadline-expired context classifies as ErrDeadlineExceeded.
			ctx, cancel := context.WithTimeout(context.Background(), -1)
			defer cancel()
			if _, err := eng.ClusterDatasetContext(ctx, ds); !errors.Is(err, grid.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("expired deadline: error %v not tagged ErrDeadlineExceeded", err)
			}
		})
	}
}

// TestSessionCancellationProperty is the mid-pipeline cancellation property
// test: stream every fixture into a session through random batch splits with
// random removals, firing cancelled reads (Result and MultiResolution, each
// cancelled after a random number of stage events — which lands the cancel
// in the fold, the transform, the threshold, the components or the
// assignment, or occasionally nowhere) between the mutations. After the
// stream, the session must yield labels bit-identical to a one-shot
// never-cancelled clustering of the surviving points, and its live grid
// must equal the one-shot quantization cell for cell.
func TestSessionCancellationProperty(t *testing.T) {
	for _, fx := range sessionFixtures(t) {
		for round := int64(0); round < 3; round++ {
			t.Run(fmt.Sprintf("%s/round=%d", fx.name, round), func(t *testing.T) {
				rng := rand.New(rand.NewSource(round*101 + 7))
				ds := pointset.MustFromSlices(fx.pts)
				eng, err := NewEngine(fx.cfg, 1+int(round))
				if err != nil {
					t.Fatal(err)
				}
				sess := eng.NewSession()

				cancelledReads := 0
				cancelledRead := func() {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					k := int32(1 + rng.Intn(8))
					counter := hookCancelAt(cancel, k)
					var rerr error
					if rng.Intn(3) == 0 {
						_, rerr = sess.MultiResolutionContext(ctx, 3)
					} else {
						_, rerr = sess.ResultContext(ctx)
					}
					SetStageHook(nil)
					if rerr != nil {
						if !errors.Is(rerr, grid.ErrCanceled) {
							t.Fatalf("cancelled read: error %v not tagged ErrCanceled", rerr)
						}
						cancelledReads++
					} else if counter.Load() >= k {
						t.Fatalf("read survived a cancel fired at stage event %d", k)
					}
				}

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
					if rng.Intn(2) == 0 {
						cancelledRead()
					}
					if rng.Intn(4) == 0 {
						if _, err := sess.Labels(); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(3) == 0 && len(live) > 20 {
						nrm := 1 + rng.Intn(len(live)/10+1)
						perm := rng.Perm(len(live))[:nrm]
						if err := sess.Remove(perm); err != nil {
							t.Fatal(err)
						}
						sortDesc(perm)
						for _, p := range perm {
							live = append(live[:p], live[p+1:]...)
						}
						if rng.Intn(2) == 0 {
							cancelledRead()
						}
					}
				}
				if cancelledReads == 0 {
					cancelledRead() // at least one cancelled read per round
				}

				// A context dead before the call leaves mutations unapplied.
				dead, cancel := context.WithCancel(context.Background())
				cancel()
				n := sess.Len()
				if err := sess.AppendContext(dead, &pointset.Dataset{Data: make([]float64, ds.D), N: 1, D: ds.D}); !errors.Is(err, grid.ErrCanceled) {
					t.Fatalf("dead-context append: %v", err)
				}
				if err := sess.RemoveContext(dead, []int{0}); !errors.Is(err, grid.ErrCanceled) {
					t.Fatalf("dead-context remove: %v", err)
				}
				if sess.Len() != n {
					t.Fatalf("dead-context mutation changed the session: %d → %d points", n, sess.Len())
				}

				// The session after all those aborts must be indistinguishable
				// from one that never saw a cancel.
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
}
