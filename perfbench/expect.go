package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"adawave"
	"adawave/internal/metrics"
)

// expectationsPath holds, per batch workload and seed, the AMI and the
// label digest of that seed's clustering, recorded with "perfbench record".
const expectationsPath = "perfbench/expected.json"

// expected is one seed's recorded outputs: the label digest, and the AMI
// against the ground truth where the generator has one.
type expected struct {
	AMI    *float64 `json:"ami,omitempty"`
	Labels string   `json:"labels"`
}

// expectations maps workload → seed → recorded outputs.
type expectations map[string]map[string]expected

func loadExpectations(path string) (expectations, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return expectations{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read expectations: %w", err)
	}
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return e, nil
}

// errUnrecorded marks a seed with no recorded outputs: the check cannot
// apply, and the record says so.
var errUnrecorded = errors.New("no value recorded for this seed")

// check compares a run's labels, and its AMI when it has one, with the
// values recorded for its seed.
func (e expectations) check(workload string, seed int64, labels []int, ami *float64) error {
	want, ok := e[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return errUnrecorded
	}
	if got := labelDigest(labels); got != want.Labels {
		return fmt.Errorf("label digest %s, recorded %s", got, want.Labels)
	}
	if (ami == nil) != (want.AMI == nil) || (ami != nil && math.Float64bits(*ami) != math.Float64bits(*want.AMI)) {
		return fmt.Errorf("ami %v, recorded %v", fmtAMI(ami), fmtAMI(want.AMI))
	}
	return nil
}

func fmtAMI(v *float64) string {
	if v == nil {
		return "none"
	}
	return strconv.FormatFloat(*v, 'g', -1, 64)
}

// labelDigest is a 64-bit FNV-1a hash of a label vector.
func labelDigest(labels []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		v := uint64(int64(l))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// recordMain is "perfbench record": it clusters each seed of a range once
// per batch workload and stores the AMI and label digest in
// perfbench/expected.json, keeping entries for other seeds.
func recordMain(args []string) int {
	fs := flag.NewFlagSet("perfbench record", flag.ContinueOnError)
	name := fs.String("workload", "", "batch workload to record")
	from := fs.Int64("from", 0, "first seed")
	to := fs.Int64("to", 99, "last seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name].(*batchWorkload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench record: %q is not a batch workload\n", *name)
		return 2
	}
	if err := recordSeeds(w, *name, *from, *to); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench record: %v\n", err)
		return 1
	}
	return 0
}

func recordSeeds(w *batchWorkload, name string, from, to int64) error {
	e, err := loadExpectations(expectationsPath)
	if err != nil {
		return err
	}
	if e[name] == nil {
		e[name] = map[string]expected{}
	}
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	for seed := from; seed <= to; seed++ {
		labels, ami, err := clusterOnce(ctx, w, seed, dir)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		e[name][strconv.FormatInt(seed, 10)] = expected{AMI: ami, Labels: labelDigest(labels)}
		fmt.Fprintf(os.Stderr, "%s seed %d: ami %s\n", name, seed, fmtAMI(ami))
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectationsPath, append(b, '\n'), 0o644)
}

// clusterOnce generates a seed's inputs, clusters them once and scores the
// labels against the ground truth, if there is one.
func clusterOnce(ctx context.Context, w *batchWorkload, seed int64, dir string) ([]int, *float64, error) {
	path := filepath.Join(dir, "mixture.awds")
	src, err := w.gen(seed, path)
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(path)
	var ext *adawave.ExternalOptions
	if w.ext != nil {
		opts := *w.ext
		opts.TempDir = dir
		ext = &opts
	}
	ds, closeDS, err := w.open(src, path)
	if err != nil {
		return nil, nil, err
	}
	defer closeDS()
	c, err := adawave.New(w.opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := call(ctx, c, ds, ext)
	if err != nil {
		return nil, nil, err
	}
	if w.truth == nil {
		return res.Labels, nil, nil
	}
	truth, err := w.truth(seed, ds)
	if err != nil {
		return nil, nil, err
	}
	ami := metrics.AMI(truth, res.Labels)
	return res.Labels, &ami, nil
}
