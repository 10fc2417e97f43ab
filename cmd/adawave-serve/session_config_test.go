package main

import (
	"bytes"
	"testing"

	"adawave"
)

// FuzzCreateSessionBody: on any POST /v1/sessions body, sessionConfig must
// not panic, and a config it accepts must be one adawave.New accepts too,
// so createSession never answers a body it took with a construction error.
// The seeds under testdata/fuzz/ hold an empty body, the defaults spelled
// out, every field set, each kind of rejected value, an embedding, and
// malformed and trailing JSON.
func FuzzCreateSessionBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, err := sessionConfig(bytes.NewReader(body))
		if err != nil {
			return
		}
		if _, err := adawave.New(adawave.WithConfig(cfg), adawave.WithWorkers(1)); err != nil {
			t.Fatalf("body %q: accepted config rejected by New: %v", body, err)
		}
	})
}
