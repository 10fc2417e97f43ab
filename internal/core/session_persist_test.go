package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"adawave/internal/persist"
	"adawave/internal/pointset"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// The checkpoint equivalence gate: a session restored from a checkpoint
// taken at ANY point in an append/remove sequence must reproduce the
// original session's labels bit for bit — and keep doing so as both
// sessions continue mutating identically afterwards (the restored quantizer
// frame must be exact, or the incremental merge paths would diverge).

// checkpointRestore round-trips s through the binary format onto a fresh
// engine with the same configuration.
func checkpointRestore(t *testing.T, s *Session, cfg Config, workers int) *Session {
	t.Helper()
	var buf bytes.Buffer
	if err := s.CheckpointContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(&buf, eng)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// assertSessionsAgree compares two live sessions label for label.
func assertSessionsAgree(t *testing.T, want, got *Session) {
	t.Helper()
	wres, err := want.Result()
	if err != nil {
		t.Fatal(err)
	}
	gres, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, wres, gres)
}

// TestSessionCheckpointEquivalence streams every fixture through random
// append/remove sequences, checkpoint-restores at random points (reads
// interleaved, so both synced and dirty states are hit), and asserts the
// restored session matches the original — immediately, and again after both
// apply the same further mutations.
func TestSessionCheckpointEquivalence(t *testing.T) {
	for _, fx := range sessionFixtures(t) {
		for round := int64(0); round < 2; round++ {
			t.Run(fmt.Sprintf("%s/round=%d", fx.name, round), func(t *testing.T) {
				rng := rand.New(rand.NewSource(round*101 + 7))
				ds := pointset.MustFromSlices(fx.pts)
				eng, err := NewEngine(fx.cfg, 1+int(round))
				if err != nil {
					t.Fatal(err)
				}
				sess := eng.NewSession()
				var restored *Session

				off := 0
				for _, b := range randomBatches(ds.N, rng) {
					batch := &pointset.Dataset{Data: ds.Data[off*ds.D : (off+b)*ds.D], N: b, D: ds.D}
					if err := sess.Append(batch); err != nil {
						t.Fatal(err)
					}
					if restored != nil {
						if err := restored.Append(batch); err != nil {
							t.Fatal(err)
						}
					}
					off += b
					if rng.Intn(2) == 0 && sess.Len() > 20 {
						nrm := 1 + rng.Intn(sess.Len()/10+1)
						perm := rng.Perm(sess.Len())[:nrm]
						if err := sess.Remove(perm); err != nil {
							t.Fatal(err)
						}
						if restored != nil {
							if err := restored.Remove(append([]int(nil), perm...)); err != nil {
								t.Fatal(err)
							}
						}
					}
					if rng.Intn(3) == 0 {
						if _, err := sess.Labels(); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(3) == 0 {
						restored = checkpointRestore(t, sess, fx.cfg, 1+int(round))
						assertSessionGrid(t, restored)
						assertSessionsAgree(t, sess, restored)
					}
				}
				if restored == nil {
					restored = checkpointRestore(t, sess, fx.cfg, 1)
				}
				assertSessionGrid(t, restored)
				assertSessionsAgree(t, sess, restored)
				// The restored session must also match a one-shot run over
				// its own points (transitively guaranteed, checked directly).
				want, err := eng.ClusterDatasetContext(context.Background(), restored.ds)
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.Result()
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, want, got)
			})
		}
	}
}

// TestSessionCheckpointBetweenRemoveAndRead: the regression the snapshot
// tombstone fix exists for — a checkpoint taken after a Remove but before
// any read (the live grid still holds zero-mass tombstones) must write,
// restore, and agree with the uninterrupted session.
func TestSessionCheckpointBetweenRemoveAndRead(t *testing.T) {
	data := synth.RunningExampleSized(300, 1)
	sess, err := NewSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(pointset.MustFromSlices(data.Points)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Labels(); err != nil { // fold, so Remove hits the grid
		t.Fatal(err)
	}
	// Remove interior points and checkpoint immediately: no read between.
	if err := sess.Remove([]int{50, 51, 52, 120, 121}); err != nil {
		t.Fatal(err)
	}
	restored := checkpointRestore(t, sess, DefaultConfig(), 1)
	assertSessionGrid(t, restored)
	assertSessionsAgree(t, sess, restored)
}

// TestRestoreFlatEraCheckpoint: testdata/flat_session.ckpt was written by
// a session running the retired flat live grid — after an append, a read
// and a removal — so its grid section is an AWG1 snapshot. It must restore
// to labels bit-identical to a fresh session fed the same rows, and the
// two must keep agreeing through further appends and removals.
func TestRestoreFlatEraCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/flat_session.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("AWG1")) {
		t.Fatal("fixture carries no AWG1 grid snapshot")
	}
	eng, err := NewEngine(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(bytes.NewReader(raw), eng)
	if err != nil {
		t.Fatalf("flat-era checkpoint failed to restore: %v", err)
	}
	assertSessionGrid(t, restored)
	fresh := eng.NewSession()
	rows := &pointset.Dataset{Data: append([]float64(nil), restored.ds.Data...), N: restored.ds.N, D: restored.ds.D}
	if err := fresh.Append(rows); err != nil {
		t.Fatal(err)
	}
	assertSessionsAgree(t, fresh, restored)
	more := synth.RunningExampleSized(30, 2).Flat()
	for _, s := range []*Session{fresh, restored} {
		if err := s.Append(more); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove([]int{0, 5, rows.N + 3}); err != nil {
			t.Fatal(err)
		}
	}
	assertSessionsAgree(t, fresh, restored)
	assertSessionGrid(t, restored)
}

// TestSessionCheckpointEmpty: an empty session (fresh, or drained by
// removals) checkpoints and restores, preserving a fixed dimensionality.
func TestSessionCheckpointEmpty(t *testing.T) {
	sess, err := NewSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	restored := checkpointRestore(t, sess, DefaultConfig(), 1)
	if restored.Len() != 0 {
		t.Fatalf("restored %d points from an empty checkpoint", restored.Len())
	}
	if err := sess.Append(&pointset.Dataset{Data: []float64{1, 2, 3, 4}, N: 2, D: 2}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Remove([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	restored = checkpointRestore(t, sess, DefaultConfig(), 1)
	if restored.Len() != 0 || restored.Dim() != 2 {
		t.Fatalf("drained session restored as %d×%d, want 0×2", restored.Len(), restored.Dim())
	}
	// The restored dimensionality still rejects mismatched appends.
	if err := restored.Append(&pointset.Dataset{Data: []float64{1, 2, 3}, N: 1, D: 3}); err == nil {
		t.Fatal("restored session must keep its fixed dimensionality")
	}
}

// TestRestoreSessionConfigMismatch: restoring under any differing
// configuration is a typed error, never a silent restore.
func TestRestoreSessionConfigMismatch(t *testing.T) {
	sess, err := NewSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(synth.RunningExampleSized(100, 1).Flat()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.CheckpointContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Basis = wavelet.Haar() },
		func(c *Config) { c.Levels = 2 },
		func(c *Config) { c.Scale = 64 },
		func(c *Config) { c.MinClusterMass = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		eng, err := NewEngine(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreSession(bytes.NewReader(buf.Bytes()), eng); !errors.Is(err, persist.ErrConfigMismatch) {
			t.Fatalf("mutation %d: got %v, want ErrConfigMismatch", i, err)
		}
	}
}

// TestRestoreSessionThresholdParamMismatch: the fingerprint carries
// strategy parameters, not just names — a same-named threshold with a
// different cut must refuse to restore (it would silently change labels).
func TestRestoreSessionThresholdParamMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = FixedThreshold{Value: 0.8}
	sess, err := NewSession(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Append(synth.RunningExampleSized(80, 1).Flat()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.CheckpointContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Threshold = FixedThreshold{Value: 0.2}
	eng, err := NewEngine(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSession(bytes.NewReader(buf.Bytes()), eng); !errors.Is(err, persist.ErrConfigMismatch) {
		t.Fatalf("differing threshold parameter: got %v, want ErrConfigMismatch", err)
	}
	same, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSession(bytes.NewReader(buf.Bytes()), same); err != nil {
		t.Fatalf("identical threshold parameter must restore: %v", err)
	}
}
