package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"adawave/client"
)

func TestMinSamplesLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {75, 40}, {90, 100}, {95, 200}, {99, 1000}} {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, n, c.want)
		}
		if beyond(n, c.p) < minBeyond || beyond(n-1, c.p) >= minBeyond {
			t.Errorf("p%g: %d samples leave %d beyond, %d leave %d", c.p, n, beyond(n, c.p), n-1, beyond(n-1, c.p))
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	got, err := percentile(samples(100), 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got.Ms != 90 || got.N != 100 || got.Beyond != 10 {
		t.Errorf("p90 of 1..100 = %+v, want 90 with 10 beyond", got)
	}
	if _, err := percentile(samples(99), 90); err == nil {
		t.Error("p90 of 99 samples leaves 9 beyond it and must be refused")
	}
	if got, err := percentile(samples(20), 50); err != nil || got.Ms != 10 {
		t.Errorf("p50 of 1..20 = %+v, %v; want 10", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

// A request the server refuses counts as a failed operation, the same as
// one that errors.
func TestErrorRateCountsRefusedRequests(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		switch calls {
		case 2:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":{"code":"unavailable","message":"failover"}}`, http.StatusServiceUnavailable)
		case 4:
			http.Error(w, `{"error":{"code":"quota_exceeded","message":"slow down"}}`, http.StatusTooManyRequests)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"appended":1,"points":1}`))
		}
	}))
	defer srv.Close()
	cl := client.New(srv.URL)

	out := newOutcome()
	tl := &out.tally
	for i := 0; i < 5; i++ {
		_, err := cl.Append(context.Background(), "s", [][]float64{{0.5, 0.5}})
		tl.record(err)
	}
	if tl.attempted != 5 || tl.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 5 and 2", tl.attempted, tl.failed)
	}
	if got := tl.errorRate(); got != 0.4 {
		t.Errorf("error rate %v, want 0.4", got)
	}
	var ae *client.APIError
	if !errors.As(tl.firstErr, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Errorf("first failure %v, want the 503", tl.firstErr)
	}

	out.check("ok", nil)
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "success_rate", Unit: "ratio"}}}
	res, _, err := report(spec, out, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 5 || res.Failed != 2 || res.Metrics["success_rate"].Value != 0.6 {
		t.Errorf("result %+v, want 5 attempted, 2 failed, success_rate 0.6", res)
	}
}
