package main

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"adawave"
)

// FuzzRemoveBody: on any DELETE /v1/sessions/{id}/points body,
// removeIndices must not panic, and for every body it accepts,
// Session.RemoveContext on an eight-point session must apply the removal
// when the indices are distinct and in range — leaving eight minus their
// count — and otherwise return an ErrInvalidInput-tagged error and leave
// the session whole. The seeds under testdata/fuzz/ hold valid, empty and
// null index lists, out-of-range, negative, duplicate and fractional
// indices, malformed, truncated and trailing JSON, and an empty body.
func FuzzRemoveBody(f *testing.F) {
	const n = 8
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i * i % 5)}
	}
	ds, err := adawave.FromSlices(rows)
	if err != nil {
		f.Fatal(err)
	}
	c, err := adawave.New(adawave.WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		indices, err := removeIndices(bytes.NewReader(body))
		if err != nil {
			return
		}
		sess := c.NewSession()
		if err := sess.AppendContext(ctx, ds); err != nil {
			t.Fatal(err)
		}
		valid := true
		seen := map[int]bool{}
		for _, i := range indices {
			valid = valid && i >= 0 && i < n && !seen[i]
			seen[i] = true
		}
		err = sess.RemoveContext(ctx, indices)
		switch {
		case valid && err != nil:
			t.Fatalf("body %q: valid removal refused: %v", body, err)
		case valid && sess.Len() != n-len(indices):
			t.Fatalf("body %q: %d points left after removing %d of %d", body, sess.Len(), len(indices), n)
		case !valid && !errors.Is(err, adawave.ErrInvalidInput):
			t.Fatalf("body %q: invalid removal gave err %v, want ErrInvalidInput", body, err)
		case !valid && sess.Len() != n:
			t.Fatalf("body %q: refused removal changed the session to %d points", body, sess.Len())
		}
	})
}
