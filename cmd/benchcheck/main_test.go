package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchEvents renders benchmark results as test2json output events, the
// shape `go test -bench -json` writes. split puts the name announcement and
// the result line in two events; otherwise one event carries both.
func benchEvents(t *testing.T, split bool, results map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(name, out string) {
		if err := enc.Encode(event{Action: "output", Test: name, Output: out}); err != nil {
			t.Fatal(err)
		}
	}
	emit("", "goos: linux\n")
	for name, line := range results {
		if split {
			emit(name, name+"   \t")
			emit(name, line+"\n")
		} else {
			emit(name, name+"   \t"+line+"\n")
		}
	}
	return buf.Bytes()
}

// writeSnapshot writes a test2json snapshot into the test's temp dir.
func writeSnapshot(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// gate runs the command on two snapshots at -factor 2 and returns its exit
// code and standard output.
func gate(t *testing.T, oldSnap, newSnap []byte) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-old", writeSnapshot(t, "old.json", oldSnap),
		"-new", writeSnapshot(t, "new.json", newSnap),
		"-factor", "2",
	}, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

// resultLine is a testing.B result line with allocation stats.
func resultLine(ns, bop, allocs float64) string {
	return fmt.Sprintf("     100\t%12.0f ns/op\t  0.5965 AMI\t%8.0f B/op\t%6.0f allocs/op", ns, bop, allocs)
}

// TestParseBothEventShapes: a result line parses whether test2json
// delivers it in the name's event or in a separate one, and only the gated
// units are kept.
func TestParseBothEventShapes(t *testing.T) {
	for _, split := range []bool{false, true} {
		path := writeSnapshot(t, "snap.json", benchEvents(t, split, map[string]string{
			"BenchmarkFoo":       resultLine(9596778, 4451135, 20462),
			"BenchmarkBar/sub=1": "     200\t     1500 ns/op",
		}))
		got, err := parse(path)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]map[string]float64{
			"BenchmarkFoo":       {"ns/op": 9596778, "B/op": 4451135, "allocs/op": 20462},
			"BenchmarkBar/sub=1": {"ns/op": 1500},
		}
		if len(got) != len(want) {
			t.Fatalf("split=%v: parsed %v, want %v", split, got, want)
		}
		for name, units := range want {
			if len(got[name]) != len(units) {
				t.Fatalf("split=%v: %s parsed as %v, want %v", split, name, got[name], units)
			}
			for u, v := range units {
				if got[name][u] != v {
					t.Fatalf("split=%v: %s %s = %v, want %v", split, name, u, got[name][u], v)
				}
			}
		}
	}
}

// TestGateFactor: at -factor 2 a 2.5× ns/op series fails the gate and a
// 1.5× one passes, in either event shape.
func TestGateFactor(t *testing.T) {
	base := map[string]string{"BenchmarkFoo": resultLine(1000, 64, 2)}
	for _, split := range []bool{false, true} {
		for _, c := range []struct {
			ns   float64
			code int
			line string
		}{
			{2500, 1, "REGRESSION"},
			{1500, 0, "OK"},
		} {
			code, out := gate(t, benchEvents(t, false, base),
				benchEvents(t, split, map[string]string{"BenchmarkFoo": resultLine(c.ns, 64, 2)}))
			if code != c.code {
				t.Fatalf("split=%v ns/op 1000 → %v: exit %d, want %d\n%s", split, c.ns, code, c.code, out)
			}
			if !strings.Contains(out, c.line+" ") || !strings.Contains(out, "ns/op") {
				t.Fatalf("split=%v ns/op 1000 → %v: no %s line\n%s", split, c.ns, c.line, out)
			}
		}
	}
}

// TestGateSkipsZeroBaseline: a unit whose baseline is zero has no ratio to
// gate, so even unbounded growth from it passes.
func TestGateSkipsZeroBaseline(t *testing.T) {
	code, out := gate(t,
		benchEvents(t, false, map[string]string{"BenchmarkFoo": resultLine(1000, 0, 0)}),
		benchEvents(t, false, map[string]string{"BenchmarkFoo": resultLine(1100, 4096, 9)}))
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "1 unit series compared, 0 regressed") {
		t.Fatalf("zero-baseline units were compared\n%s", out)
	}
}

// TestGateAllNewPassesWithWarning: a snapshot whose benchmarks are all new
// has nothing to gate; it passes and says so.
func TestGateAllNewPassesWithWarning(t *testing.T) {
	code, out := gate(t,
		benchEvents(t, false, map[string]string{"BenchmarkOld": resultLine(1000, 64, 2)}),
		benchEvents(t, true, map[string]string{"BenchmarkNew": resultLine(1e9, 1e9, 1e6)}))
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{"NEW ", "RETIRED ", "no common benchmarks; 1 new, nothing to gate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q\n%s", want, out)
		}
	}
}
