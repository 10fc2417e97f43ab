package embed

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// FuzzUnmarshalEmbedder feeds arbitrary bytes to Unmarshal, the decoder of
// the embedder section of a session checkpoint. It must never panic, and a
// rejected frame must fail with an ErrInvalidInput-tagged error. An accepted
// frame must re-marshal to bytes that Unmarshal accepts and that marshal
// again to the same bytes (the first re-marshal may drop a PCA frame's
// unused seed), and both decoded embedders must project a fixed 5×inDim
// dataset bit-identically, at different worker counts. The seed corpus in
// testdata/fuzz/FuzzUnmarshalEmbedder holds a PCA and a random-projection
// frame plus truncated, oversized and bad-kind frames; the in-code seeds
// are whatever fits marshal today.
func FuzzUnmarshalEmbedder(f *testing.F) {
	ds := anisotropic(40, 6, 3)
	for _, sp := range []Spec{{Kind: KindPCA, K: 4}, {Kind: KindRP, K: 5, Seed: 3}} {
		e, _ := New(sp)
		if err := e.Fit(ds); err != nil {
			f.Fatal(err)
		}
		b, err := e.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, grid.ErrInvalidInput) {
				t.Fatalf("rejection not typed as ErrInvalidInput: %v", err)
			}
			return
		}
		again, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame does not re-marshal: %v", err)
		}
		e2, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshalled frame rejected: %v", err)
		}
		if third, err := e2.MarshalBinary(); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("second round trip changed the frame (err %v)", err)
		}
		if e2.Spec() != e.Spec() || e2.InDim() != e.InDim() || e2.OutDim() != e.OutDim() {
			t.Fatalf("round trip changed the shape: %s %d→%d vs %s %d→%d",
				e.Spec(), e.InDim(), e.OutDim(), e2.Spec(), e2.InDim(), e2.OutDim())
		}
		rows := pointset.New(e.InDim(), 5)
		row := make([]float64, e.InDim())
		for i := 0; i < 5; i++ {
			for c := range row {
				row[c] = float64((i+1)*(c+2)%7) - 2.5
			}
			rows.AppendRow(row)
		}
		p1, err := e.TransformCtx(context.Background(), rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := e2.TransformCtx(context.Background(), rows, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(p1.Data, p2.Data) {
			t.Fatal("decoded embedders project the fixed rows differently")
		}
	})
}
