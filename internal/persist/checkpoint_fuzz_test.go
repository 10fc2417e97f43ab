package persist

import (
	"bytes"
	"testing"
)

// FuzzReadSessionCheckpoint feeds arbitrary bytes to the checkpoint decoder
// that session recovery, rehydration and follower provisioning run. It may
// refuse its input but never panic, and a checkpoint it accepts must be
// self-consistent: every row present, one memoized cell id per row indexing
// the grid, and a state that writes back out and reads in again to the
// same bytes. The committed seed corpus under
// testdata/fuzz/FuzzReadSessionCheckpoint holds a plain and an embedding
// checkpoint, whole and damaged.
func FuzzReadSessionCheckpoint(f *testing.F) {
	for _, st := range []*SessionState{testState(f, 24), embedState(f, 24)} {
		var buf bytes.Buffer
		if err := WriteSessionCheckpoint(&buf, st); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)-7])
		flipped := bytes.Clone(raw)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(checkpointMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSessionCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.DS.N > 0 {
			if len(st.DS.Data) != st.DS.N*st.DS.D || len(st.IDs) != st.DS.N || st.Grid == nil {
				t.Fatalf("accepted %d×%d checkpoint carries %d values and %d ids", st.DS.N, st.DS.D, len(st.DS.Data), len(st.IDs))
			}
			for i, id := range st.IDs {
				if id < 0 || int(id) >= st.Grid.Len() {
					t.Fatalf("accepted checkpoint: id %d of point %d outside the %d-cell grid", id, i, st.Grid.Len())
				}
			}
		}
		var first bytes.Buffer
		if err := WriteSessionCheckpoint(&first, st); err != nil {
			t.Fatalf("accepted checkpoint does not write back: %v", err)
		}
		again, err := ReadSessionCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rewritten checkpoint does not read back: %v", err)
		}
		var second bytes.Buffer
		if err := WriteSessionCheckpoint(&second, again); err != nil {
			t.Fatalf("re-read checkpoint does not write back: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("checkpoint round trip is not stable")
		}
	})
}
