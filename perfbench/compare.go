package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compareMain is "perfbench compare BASE.out NEW.out": it reads the record
// lines of two sets of runs (the saved standard output of perfbench runs),
// and prints each workload's per-metric median on both sides. It refuses
// to compare when any two records come from different hosts (CPU count,
// GOMAXPROCS, CPU model or Go version differ).
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.out NEW.out")
		return 2
	}
	var sides [2][]record
	for i := range sides {
		recs, err := readRecords(fs.Arg(i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 1
		}
		sides[i] = recs
	}
	if err := sameHost(append(append([]record(nil), sides[0]...), sides[1]...)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %v\n", err)
		return 1
	}
	type key struct{ workload, metric, unit string }
	values := map[key][2][]float64{}
	for i, recs := range sides {
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name, m.Unit}
				v := values[k]
				v[i] = append(v[i], m.Value)
				values[k] = v
			}
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return keys[a].metric < keys[b].metric
	})
	fmt.Printf("%-22s %-36s %14s %14s %9s  runs\n", "workload", "metric", "base median", "new median", "change")
	for _, k := range keys {
		v := values[k]
		if len(v[0]) == 0 || len(v[1]) == 0 {
			continue
		}
		b, n := median(v[0]), median(v[1])
		change := "n/a"
		if b != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(n-b)/b)
		}
		fmt.Printf("%-22s %-36s %14.4g %14.4g %9s  %d/%d %s\n", k.workload, k.metric, b, n, change, len(v[0]), len(v[1]), k.unit)
	}
	return 0
}

// readRecords returns the record lines of a saved perfbench output.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"record":`) {
			continue
		}
		var wrap struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, wrap.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no perfbench records", path)
	}
	return out, nil
}

// sameHost returns an error naming the first record whose host fingerprint
// differs from the first record's.
func sameHost(recs []record) error {
	for _, r := range recs[1:] {
		if r.Host != recs[0].Host {
			return fmt.Errorf("host %+v (%s seed %d) differs from %+v", r.Host, r.Workload, r.Seed, recs[0].Host)
		}
	}
	return nil
}
