package grid_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/wavelet"
)

// The transform's golden digests pin every value the wavelet chain produces
// — coordinates and float64 bit patterns, zero-valued cells included — to
// the output of the original sort-then-sweep kernel, so any change to the
// kernel's arithmetic or accumulation order shows up as a digest mismatch.
//
// testdata/transform_digests.json maps case name → SHA-256 (hex). The
// highdim case's input, testdata/highdim_base.awg2.gz, is the highdim-embed
// workload's base grid: synth.HighDimMixture(8, 25000, 64, 4, 0.5, 1)
// through a fitted PCA(4) embedding, quantized at scale 64, written as a
// gzipped AWG2 snapshot.

const (
	goldenDigestsPath = "testdata/transform_digests.json"
	highdimBasePath   = "testdata/highdim_base.awg2.gz"
)

// goldenBases are the filter banks of the synthetic sweep.
var goldenBases = []wavelet.Basis{wavelet.Haar(), wavelet.CDF22(), wavelet.CDF13(), wavelet.DB4(), wavelet.DB6()}

// goldenGrid is one transform input of the sweep.
type goldenGrid struct {
	name string
	g    *grid.FlatGrid
}

// goldenCase is one digest entry: an input, a basis and the level counts
// whose TransformLevelsFlatCtx outcomes are chained into the digest.
type goldenCase struct {
	name   string
	in     *grid.FlatGrid
	basis  wavelet.Basis
	levels []int
}

// syntheticGoldenGrids builds the seeded sweep: d = 1…5, odd and size-2
// dimensions, occupancy from sparse to near-dense, and both point-count
// masses (the level-1 input of every real run) and signed real masses with
// exact zeros (which exercise the ±0 and cancellation corners of the
// accumulation).
func syntheticGoldenGrids() []goldenGrid {
	shapes := [][]int{
		{2}, {7}, {64}, {257},
		{2, 2}, {5, 9}, {31, 17}, {64, 64}, {2, 33}, {300, 200},
		{2, 5, 3}, {9, 8, 7}, {16, 16, 16}, {40, 2, 33},
		{5, 2, 7, 3}, {8, 8, 8, 8}, {12, 9, 2, 11},
		{3, 4, 5, 2, 3}, {6, 6, 6, 6, 6}, {4, 8, 2, 9, 5},
	}
	var out []goldenGrid
	seed := int64(1)
	for _, size := range shapes {
		for _, occ := range []float64{0.03, 0.3, 0.95} {
			for _, signed := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				seed++
				f := grid.NewFlat(size, 0)
				coords := make([]uint16, len(size))
				// Walking the cell space with the last dimension fastest
				// visits cells in canonical order, so f needs no sort.
				var walk func(j int)
				walk = func(j int) {
					if j == len(size) {
						if rng.Float64() >= occ {
							return
						}
						v := float64(1 + rng.Intn(4))
						if signed {
							v = rng.NormFloat64()
							if rng.Intn(10) == 0 {
								v = 0
							}
						}
						f.Append(coords, v)
						return
					}
					for c := 0; c < size[j]; c++ {
						coords[j] = uint16(c)
						walk(j + 1)
					}
				}
				walk(0)
				mass := "count"
				if signed {
					mass = "real"
				}
				out = append(out, goldenGrid{fmt.Sprintf("%v-occ%.2f-%s", size, occ, mass), f})
			}
		}
	}
	return out
}

var (
	highdimOnce sync.Once
	highdimGrid *grid.FlatGrid
	highdimErr  error
)

// highdimBase loads the highdim-embed workload's base grid (199,626 4-D
// cells at scale 64).
func highdimBase(t testing.TB) *grid.FlatGrid {
	t.Helper()
	highdimOnce.Do(func() {
		raw, err := os.ReadFile(highdimBasePath)
		if err != nil {
			highdimErr = err
			return
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			highdimErr = err
			return
		}
		p, err := grid.ReadSnapshot(zr)
		if err != nil {
			highdimErr = err
			return
		}
		highdimGrid = p.Unpack()
	})
	if highdimErr != nil {
		t.Fatalf("load %s: %v", highdimBasePath, highdimErr)
	}
	return highdimGrid
}

// goldenCases lists every digest entry: each synthetic grid under every
// basis at levels 1, 2 and 3, and the highdim base grid under the
// workload's CDF(2,2) chain to level 3 plus one Haar and one DB4 level.
func goldenCases(t testing.TB) []goldenCase {
	var cases []goldenCase
	for _, gg := range syntheticGoldenGrids() {
		for _, b := range goldenBases {
			cases = append(cases, goldenCase{gg.name + "-" + b.Name, gg.g, b, []int{1, 2, 3}})
		}
	}
	hd := highdimBase(t)
	cases = append(cases,
		goldenCase{"highdim-" + wavelet.CDF22().Name, hd, wavelet.CDF22(), []int{3}},
		goldenCase{"highdim-" + wavelet.Haar().Name, hd, wavelet.Haar(), []int{1}},
		goldenCase{"highdim-" + wavelet.DB4().Name, hd, wavelet.DB4(), []int{1}},
	)
	return cases
}

// hashOutcome folds one TransformLevelsFlatCtx outcome into h: the error text
// for a failed call, otherwise every returned level's sizes, coordinates
// and float64 bit patterns.
func hashOutcome(h hash.Hash, levels []*grid.FlatGrid, err error) {
	if err != nil {
		fmt.Fprintf(h, "error:%s;", err)
		return
	}
	var b [8]byte
	for _, l := range levels {
		fmt.Fprintf(h, "level:%v:%d;", l.Size, l.Len())
		for _, c := range l.Coords {
			binary.LittleEndian.PutUint16(b[:2], c)
			h.Write(b[:2])
		}
		for _, v := range l.Vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// isCanonical reports whether f's cells ascend strictly in canonical
// (dimension-0-first lexicographic) order.
func isCanonical(f *grid.FlatGrid) bool {
	d := f.Dim()
	for i := 1; i < f.Len(); i++ {
		if slices.Compare(f.Coords[(i-1)*d:i*d], f.Coords[i*d:(i+1)*d]) >= 0 {
			return false
		}
	}
	return true
}

func sameGrid(a, b *grid.FlatGrid) bool {
	if !slices.Equal(a.Size, b.Size) || !slices.Equal(a.Coords, b.Coords) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

func loadGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTransformGoldenDigests runs the transform chain over every golden
// case at several worker counts and checks that it reproduces the
// committed digest, that every returned level is canonical and that the
// input grid is left byte-identical.
func TestTransformGoldenDigests(t *testing.T) {
	want := loadGoldenDigests(t)
	cases := goldenCases(t)
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d digests, the sweep has %d cases", filepath.Base(goldenDigestsPath), len(want), len(cases))
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, c := range cases {
			pristine := c.in.Clone()
			h := sha256.New()
			for _, n := range c.levels {
				levels, err := grid.TransformLevelsFlatCtx(context.Background(), c.in, c.basis, n, workers)
				hashOutcome(h, levels, err)
				for l, g := range levels {
					if !isCanonical(g) {
						t.Fatalf("%s workers=%d levels=%d: level %d not canonical", c.name, workers, n, l+1)
					}
				}
				if !sameGrid(c.in, pristine) {
					t.Fatalf("%s workers=%d levels=%d: input grid modified", c.name, workers, n)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[c.name] {
				t.Errorf("%s workers=%d: digest %s, want %s", c.name, workers, got, want[c.name])
			}
		}
	}
}
