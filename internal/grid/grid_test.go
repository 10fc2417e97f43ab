package grid_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"adawave/internal/grid"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
	"adawave/internal/wavelet"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := [][]int{{0}, {1, 2}, {65535, 0, 123}, {7, 7, 7, 7, 7, 7, 7, 7, 7, 7}}
	for _, coords := range cases {
		k := oracle.MakeKey(coords)
		if k.Dim() != len(coords) {
			t.Fatalf("Dim = %d, want %d", k.Dim(), len(coords))
		}
		back := k.Coords()
		for j := range coords {
			if back[j] != coords[j] || k.Coord(j) != coords[j] {
				t.Fatalf("round trip failed for %v: got %v", coords, back)
			}
		}
	}
}

func TestKeyWith(t *testing.T) {
	k := oracle.MakeKey([]int{3, 5, 9})
	k2 := k.With(1, 300)
	if k2.Coord(0) != 3 || k2.Coord(1) != 300 || k2.Coord(2) != 9 {
		t.Fatalf("With produced %v", k2.Coords())
	}
	// Original unchanged.
	if k.Coord(1) != 5 {
		t.Fatal("With mutated the original key")
	}
}

func TestKeyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range coordinate should panic")
		}
	}()
	oracle.MakeKey([]int{70000})
}

func TestGridBasics(t *testing.T) {
	g := oracle.New([]int{4, 4})
	k := oracle.MakeKey([]int{1, 2})
	g.Add(k, 2)
	g.Add(k, 3)
	if g.Density(k) != 5 {
		t.Fatalf("density = %v", g.Density(k))
	}
	if g.Len() != 1 || g.Dim() != 2 {
		t.Fatalf("Len/Dim wrong: %d %d", g.Len(), g.Dim())
	}
	if g.Density(oracle.MakeKey([]int{0, 0})) != 0 {
		t.Fatal("absent cell should read 0")
	}
	g.Add(oracle.MakeKey([]int{0, 0}), 1)
	if g.TotalMass() != 6 {
		t.Fatalf("TotalMass = %v", g.TotalMass())
	}
	sd := g.SortedDensities()
	if len(sd) != 2 || sd[0] != 5 || sd[1] != 1 {
		t.Fatalf("SortedDensities = %v", sd)
	}
	th := g.Threshold(2)
	if th.Len() != 1 || th.Density(k) != 5 {
		t.Fatalf("Threshold wrong: %+v", th.Cells)
	}
	c := g.Clone()
	c.Add(k, 1)
	if g.Density(k) != 5 {
		t.Fatal("Clone is not deep")
	}
}

func TestDropBelow(t *testing.T) {
	g := oracle.New([]int{8})
	g.Add(oracle.MakeKey([]int{0}), 0.001)
	g.Add(oracle.MakeKey([]int{1}), 5)
	if removed := g.DropBelow(0.01); removed != 1 {
		t.Fatalf("removed %d cells", removed)
	}
	if g.Len() != 1 {
		t.Fatalf("Len after drop = %d", g.Len())
	}
}

// quantize builds the quantizer and grid of points at one worker.
func quantize(t testing.TB, points [][]float64, scale int) (*grid.FlatGrid, error) {
	t.Helper()
	ds := pointset.MustFromSlices(points)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, scale, 1)
	if err != nil {
		return nil, err
	}
	g, _, err := q.QuantizeDatasetCtx(context.Background(), ds, 1)
	return g, err
}

func TestQuantizerBasics(t *testing.T) {
	g, err := quantize(t, [][]float64{{0, 0}, {1, 1}, {0.49, 0.51}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0)→cell(0,0); (0.49,0.51)→(0,1); (1,1)→clamped to (1,1)
	for i, want := range [][]uint16{{0, 0}, {0, 1}, {1, 1}} {
		if c := g.CellCoords(i); c[0] != want[0] || c[1] != want[1] || g.Vals[i] != 1 {
			t.Fatalf("cell %d = %v mass %v, want %v mass 1", i, c, g.Vals[i], want)
		}
	}
	if g.Len() != 3 || g.TotalMass() != 3 {
		t.Fatalf("%d cells, mass %v", g.Len(), g.TotalMass())
	}
}

func TestQuantizerErrors(t *testing.T) {
	if _, err := quantize(t, nil, 4); err != grid.ErrNoPoints {
		t.Fatalf("want ErrNoPoints, got %v", err)
	}
	if _, err := quantize(t, [][]float64{{1}}, 1); err == nil {
		t.Fatal("scale < 2 should error")
	}
	if _, err := quantize(t, [][]float64{{1}}, 1<<20); err == nil {
		t.Fatal("huge scale should error")
	}
	if _, err := quantize(t, [][]float64{{}}, 4); err == nil {
		t.Fatal("zero-dimensional points should error")
	}
}

func TestQuantizerConstantDimension(t *testing.T) {
	g, err := quantize(t, [][]float64{{1, 5}, {2, 5}, {3, 5}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Len(); i++ {
		if c := g.CellCoords(i)[1]; c != 0 {
			t.Fatalf("constant dimension should map to cell 0, got %d", c)
		}
	}
	if g.TotalMass() != 3 {
		t.Fatalf("mass %v", g.TotalMass())
	}
}

func TestQuantizeMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rng.Int31n(500))
		d := 1 + int(rng.Int31n(4))
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64() * 10
			}
			pts[i] = p
		}
		g, err := quantize(t, pts, 16)
		return err == nil && g.TotalMass() == float64(n) && g.Len() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseTransformMatchesDense verifies that the sparse scatter
// transform computes exactly the dense wavelet.Approx coefficients along
// each dimension.
func TestSparseTransformMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, b := range wavelet.Bases() {
		// 1-D grid: direct comparison with wavelet.Approx.
		n := 32
		sig := make([]float64, n)
		g := oracle.New([]int{n})
		for i := range sig {
			if rng.Float64() < 0.5 { // keep it sparse
				sig[i] = rng.Float64() * 10
				if sig[i] != 0 {
					g.Add(oracle.MakeKey([]int{i}), sig[i])
				}
			}
		}
		want := wavelet.Approx(sig, b)
		got := oracle.TransformDim(g, 0, b)
		if got.Size[0] != len(want) {
			t.Fatalf("%s: size %d, want %d", b.Name, got.Size[0], len(want))
		}
		for k, w := range want {
			if math.Abs(got.Density(oracle.MakeKey([]int{k}))-w) > 1e-10 {
				t.Fatalf("%s: coeff %d = %v, want %v", b.Name, k, got.Density(oracle.MakeKey([]int{k})), w)
			}
		}
	}
}

func TestTransform2DSeparable(t *testing.T) {
	// A separable product signal: transform of product = product of
	// transforms (since the 2-D transform is separable).
	b := wavelet.CDF22()
	nx, ny := 16, 8
	fx := make([]float64, nx)
	fy := make([]float64, ny)
	rng := rand.New(rand.NewSource(5))
	for i := range fx {
		fx[i] = rng.Float64()
	}
	for i := range fy {
		fy[i] = rng.Float64()
	}
	g := oracle.New([]int{nx, ny})
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if v := fx[i] * fy[j]; v != 0 {
				g.Add(oracle.MakeKey([]int{i, j}), v)
			}
		}
	}
	got := transform1(g, b)
	ax, ay := wavelet.Approx(fx, b), wavelet.Approx(fy, b)
	if got.Size[0] != len(ax) || got.Size[1] != len(ay) {
		t.Fatalf("size %v", got.Size)
	}
	for i := range ax {
		for j := range ay {
			want := ax[i] * ay[j]
			if math.Abs(got.Density(oracle.MakeKey([]int{i, j}))-want) > 1e-9 {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, got.Density(oracle.MakeKey([]int{i, j})), want)
			}
		}
	}
}

func TestTransformLevels(t *testing.T) {
	g := oracle.New([]int{16, 16})
	g.Add(oracle.MakeKey([]int{8, 8}), 4)
	levels, err := oracle.TransformLevels(g, wavelet.Haar(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("got %d levels", len(levels))
	}
	if levels[2].Size[0] != 2 || levels[2].Size[1] != 2 {
		t.Fatalf("level-3 size %v", levels[2].Size)
	}
	// Haar with DC gain 1 *averages* pairs: density is preserved but total
	// mass scales by (1/2)ᵈ per level (cells halve along every dimension).
	want := 4.0
	for l, lg := range levels {
		want /= 4 // d = 2
		if math.Abs(lg.TotalMass()-want) > 1e-9 {
			t.Fatalf("level %d mass %v, want %v", l+1, lg.TotalMass(), want)
		}
	}
	if _, err := oracle.TransformLevels(g, wavelet.Haar(), 0); err == nil {
		t.Fatal("levels=0 should error")
	}
	if _, err := oracle.TransformLevels(g, wavelet.Haar(), 10); err == nil {
		t.Fatal("too many levels should error")
	}
}

func TestShiftKey(t *testing.T) {
	k := oracle.MakeKey([]int{12, 7})
	if s := oracle.Key(oracle.AppendShiftedKey(nil, k, 1)); s.Coord(0) != 6 || s.Coord(1) != 3 {
		t.Fatalf("shift 1 = %v", s.Coords())
	}
	if s := oracle.Key(oracle.AppendShiftedKey(nil, k, 2)); s.Coord(0) != 3 || s.Coord(1) != 1 {
		t.Fatalf("shift 2 = %v", s.Coords())
	}
}

func TestComponentsFaces(t *testing.T) {
	//  Layout (4x4): two L-shaped components and one isolated cell.
	//  A A . B
	//  . A . .
	//  . . . .
	//  C . . .
	g := oracle.New([]int{4, 4})
	for _, c := range [][]int{{0, 0}, {1, 0}, {1, 1}, {3, 0}, {0, 3}} {
		g.Add(oracle.MakeKey(c), 1)
	}
	labels, err := oracle.Components(g, grid.Faces)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 5 {
		t.Fatalf("labeled %d cells", len(labels))
	}
	la := labels[oracle.MakeKey([]int{0, 0})]
	if labels[oracle.MakeKey([]int{1, 0})] != la || labels[oracle.MakeKey([]int{1, 1})] != la {
		t.Fatal("L-shape not connected")
	}
	if labels[oracle.MakeKey([]int{3, 0})] == la || labels[oracle.MakeKey([]int{0, 3})] == la {
		t.Fatal("separate cells merged")
	}
	ids := map[int]bool{}
	for _, l := range labels {
		ids[l] = true
	}
	if len(ids) != 3 {
		t.Fatalf("found %d components, want 3", len(ids))
	}
}

func TestComponentsFullVsFaces(t *testing.T) {
	// Two cells touching only diagonally: separate under grid.Faces, joined
	// under grid.Full.
	g := oracle.New([]int{4, 4})
	g.Add(oracle.MakeKey([]int{0, 0}), 1)
	g.Add(oracle.MakeKey([]int{1, 1}), 1)
	faces, err := oracle.Components(g, grid.Faces)
	if err != nil {
		t.Fatal(err)
	}
	if faces[oracle.MakeKey([]int{0, 0})] == faces[oracle.MakeKey([]int{1, 1})] {
		t.Fatal("diagonal cells should be separate under grid.Faces")
	}
	full, err := oracle.Components(g, grid.Full)
	if err != nil {
		t.Fatal(err)
	}
	if full[oracle.MakeKey([]int{0, 0})] != full[oracle.MakeKey([]int{1, 1})] {
		t.Fatal("diagonal cells should join under grid.Full")
	}
}

func TestComponentsFullDimensionLimit(t *testing.T) {
	g := oracle.New(make([]int, 9))
	for j := range g.Size {
		g.Size[j] = 2
	}
	if _, err := oracle.Components(g, grid.Full); err == nil {
		t.Fatal("grid.Full connectivity in 9-D should error")
	}
}

func TestComponentsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := oracle.New([]int{32, 32})
	for i := 0; i < 200; i++ {
		g.Add(oracle.MakeKey([]int{int(rng.Int31n(32)), int(rng.Int31n(32))}), 1)
	}
	l1, err := oracle.Components(g, grid.Faces)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := oracle.Components(g.Clone(), grid.Faces)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range l1 {
		if l2[k] != v {
			t.Fatalf("labels differ at %v: %d vs %d", k.Coords(), v, l2[k])
		}
	}
}

func TestComponentSizes(t *testing.T) {
	g := grid.NewFlat([]int{4}, 3)
	g.Append([]uint16{0}, 2)
	g.Append([]uint16{1}, 3)
	g.Append([]uint16{3}, 7)
	labels, n, err := grid.ComponentsFlatAutoCtx(context.Background(), g, grid.Faces, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := grid.ComponentMasses(g, labels, n)
	if len(sizes) != 2 {
		t.Fatalf("sizes %v", sizes)
	}
	if sizes[labels[0]] != 5 || sizes[labels[2]] != 7 {
		t.Fatalf("sizes %v", sizes)
	}
}

// Property: the Haar transform scales total mass by exactly (1/2)ᵈ per
// level — it averages pairs (DC gain 1), and no mass is lost at boundaries
// because every input index pairs with a valid output index.
func TestHaarMassScalingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := oracle.New([]int{64, 64})
		for i := 0; i < 100; i++ {
			g.Add(oracle.MakeKey([]int{int(rng.Int31n(64)), int(rng.Int31n(64))}), rng.Float64()*5)
		}
		before := g.TotalMass()
		after := transform1(g, wavelet.Haar()).TotalMass()
		return math.Abs(after-before/4) < 1e-9*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: transform output never exceeds the size bound and the memory
// stays proportional to occupied cells (the grid-labeling guarantee).
func TestSparsityPreserved(t *testing.T) {
	g := oracle.New([]int{1024, 1024, 1024}) // a dense 1024³ grid would be 10⁹ cells
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		g.Add(oracle.MakeKey([]int{int(rng.Int31n(1024)), int(rng.Int31n(1024)), int(rng.Int31n(1024))}), 1)
	}
	out := transform1(g, wavelet.CDF22())
	// Each cell scatters into ≤ ⌈5/2⌉ = 3 cells per dimension ⇒ ≤ 27×.
	if out.Len() > 27*500 {
		t.Fatalf("sparse transform exploded: %d cells", out.Len())
	}
	if out.Size[0] != 512 {
		t.Fatalf("output size %v", out.Size)
	}
}

func BenchmarkQuantize100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 100000)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	q, _ := grid.NewQuantizerDatasetCtx(context.Background(), pointset.MustFromSlices(pts), 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.Quantize(q, pts)
	}
}

func BenchmarkSparseTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := oracle.New([]int{128, 128})
	for i := 0; i < 5000; i++ {
		g.Add(oracle.MakeKey([]int{int(rng.Int31n(128)), int(rng.Int31n(128))}), rng.Float64())
	}
	basis := wavelet.CDF22()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform1(g, basis)
	}
}

// transform1 is one full oracle decomposition level.
func transform1(g *oracle.Grid, b wavelet.Basis) *oracle.Grid {
	levels, err := oracle.TransformLevels(g, b, 1)
	if err != nil {
		panic(err)
	}
	return levels[0]
}

func TestTransformLevelsDensificationGuard(t *testing.T) {
	// A long filter in high dimension scatters every occupied cell into
	// two cells per dimension: 100 cells in 20-D would densify towards
	// 100·2²⁰ occupied cells. TransformLevels must abort with a clear
	// error instead of consuming the machine.
	const dim = 20
	size := make([]int, dim)
	for j := range size {
		size[j] = 4
	}
	g := oracle.New(size)
	coords := make([]int, dim)
	for i := 0; i < 100; i++ {
		for j := range coords {
			coords[j] = (i + j) % 4
		}
		g.Add(oracle.MakeKey(coords), 1)
	}
	_, err := oracle.TransformLevels(g, wavelet.CDF22(), 1)
	if err == nil {
		t.Fatal("expected densification error for CDF(2,2) in 20-D")
	}
	if !strings.Contains(err.Error(), "haar") {
		t.Fatalf("error should recommend haar: %v", err)
	}
	// Haar maps each cell to exactly one output cell: same workload fine.
	levels, err := oracle.TransformLevels(g, wavelet.Haar(), 1)
	if err != nil {
		t.Fatalf("haar should not densify: %v", err)
	}
	if got := levels[0].Len(); got > 100 {
		t.Fatalf("haar grew the cell count to %d", got)
	}
}

func TestGrowthCapBounds(t *testing.T) {
	if got := grid.GrowthCap(10); got != 1<<16 {
		t.Fatalf("small input cap = %d, want the 2^16 floor", got)
	}
	if got := grid.GrowthCap(1 << 20); got != 1<<23 {
		t.Fatalf("huge input cap = %d, want the absolute ceiling", got)
	}
	if got := grid.GrowthCap(10000); got != 320000 {
		t.Fatalf("mid input cap = %d, want 32×", got)
	}
}
