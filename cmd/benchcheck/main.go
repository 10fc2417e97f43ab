// Command benchcheck compares two `go test -bench -json` snapshots and fails
// loudly when a benchmark regressed beyond an acceptance factor — the
// regression gate behind `make bench-json`, so a perf cliff lands as a red
// build instead of a silent drift in the committed BENCH_*.json trajectory.
//
//	benchcheck -old BENCH_5.json -new BENCH_6.json -factor 2
//
// Three units are gated per benchmark, each against the same factor: ns/op,
// and (when the snapshot was taken with -benchmem) B/op and allocs/op — a
// memory cliff is as much a regression as a time cliff. A unit with a zero
// baseline is skipped (nothing meaningful to ratio against), as is a unit
// absent from either snapshot. Every compared series prints one line — OK
// with the percentage delta, or REGRESSION with the ratio — so a passing run
// doubles as the review summary for a committed snapshot.
//
// Only benchmarks present in both snapshots are gated; benchmarks new in the
// current snapshot (no baseline yet) and ones retired from it are listed
// informationally. A snapshot of entirely new benchmarks passes with a
// warning — opening a new measurement axis must not fail the gate. The
// inputs are test2json streams: benchmark results ride on "output" actions
// as the standard testing.B result lines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type event struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// gatedUnits are the value/unit pairs of a testing.B result line the gate
// compares, in report order.
var gatedUnits = []string{"ns/op", "B/op", "allocs/op"}

// parse extracts name → unit → value from a test2json bench snapshot.
// test2json attributes a benchmark's result line (iterations, then
// value/unit pairs) to the bench via the Test field, so sub-benchmarks keep
// their full path and like compares with like.
func parse(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gated := make(map[string]bool, len(gatedUnits))
	for _, u := range gatedUnits {
		gated[u] = true
	}
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // interleaved non-JSON noise is not this tool's problem
		}
		if ev.Action != "output" || !strings.HasPrefix(ev.Test, "Benchmark") {
			continue
		}
		fields := strings.Fields(ev.Output)
		// test2json sometimes delivers the name and the result as one
		// output event ("BenchmarkFoo \t 100\t 123 ns/op ...") and
		// sometimes as two (the name announcement, then the bare result
		// line) — a buffering accident, not a format guarantee. Strip the
		// name so both shapes parse; otherwise live benchmarks flicker in
		// and out of the gate between runs.
		if len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
			fields = fields[1:]
		}
		// iterations  value unit  [value unit ...]
		for i := 1; i+1 < len(fields); i += 2 {
			if !gated[fields[i+1]] {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if out[ev.Test] == nil {
				out[ev.Test] = make(map[string]float64, len(gatedUnits))
			}
			out[ev.Test][fields[i+1]] = v
		}
	}
	return out, sc.Err()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, gates the snapshots and
// returns the exit code — 0 pass, 1 regression, 2 usage or input error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "baseline bench snapshot (test2json)")
	newPath := fs.String("new", "", "current bench snapshot (test2json)")
	factor := fs.Float64("factor", 2, "fail when current ns/op, B/op or allocs/op exceeds baseline by this factor")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchcheck: -old and -new are required")
		return 2
	}
	oldRes, err := parse(*oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	newRes, err := parse(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(newRes))
	added := make([]string, 0)
	for name := range newRes {
		if _, ok := oldRes[name]; ok {
			names = append(names, name)
		} else {
			added = append(added, name)
		}
	}
	retired := make([]string, 0)
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			retired = append(retired, name)
		}
	}
	sort.Strings(names)
	sort.Strings(added)
	sort.Strings(retired)
	for _, name := range added {
		fmt.Fprintf(stdout, "NEW        %-60s %12.0f ns/op (no baseline, not gated)\n", name, newRes[name]["ns/op"])
	}
	for _, name := range retired {
		fmt.Fprintf(stdout, "RETIRED    %-60s %12.0f ns/op (absent from current snapshot)\n", name, oldRes[name]["ns/op"])
	}
	if len(names) == 0 {
		if len(added) > 0 {
			// A snapshot of entirely new benchmarks (a fresh axis, like the
			// scale benches) has nothing to gate yet — warn, don't fail.
			fmt.Fprintf(stdout, "benchcheck: no common benchmarks; %d new, nothing to gate\n", len(added))
			return 0
		}
		if len(retired) > 0 {
			fmt.Fprintln(stderr, "benchcheck: current snapshot has no benchmarks")
		} else {
			fmt.Fprintln(stderr, "benchcheck: no benchmarks in either snapshot")
		}
		return 2
	}
	var compared, failed int
	for _, name := range names {
		for _, unit := range gatedUnits {
			oldV, okOld := oldRes[name][unit]
			newV, okNew := newRes[name][unit]
			if !okOld || !okNew || oldV == 0 {
				// A zero baseline (an alloc-free benchmark growing its
				// first byte) has no meaningful ratio; absolute growth from
				// zero is caught the PR after it lands a baseline.
				continue
			}
			compared++
			ratio := newV / oldV
			if ratio > *factor {
				failed++
				fmt.Fprintf(stdout, "REGRESSION %-60s %12.0f → %12.0f %-9s (%.2fx > %.2gx)\n",
					name, oldV, newV, unit, ratio, *factor)
				continue
			}
			// One line per passing series too, so the snapshot diff in review
			// reads as a delta table instead of silence-until-failure.
			fmt.Fprintf(stdout, "OK         %-60s %12.0f → %12.0f %-9s (%+.1f%%)\n",
				name, oldV, newV, unit, (ratio-1)*100)
		}
	}
	fmt.Fprintf(stdout, "benchcheck: %d benchmarks, %d unit series compared, %d regressed beyond %.2gx\n",
		len(names), compared, failed, *factor)
	if failed > 0 {
		return 1
	}
	return 0
}
