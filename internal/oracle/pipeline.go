package oracle

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"adawave/internal/core"
	"adawave/internal/grid"
	"adawave/internal/pointset"
	"adawave/internal/wavelet"
)

// Quantize builds the sparse density grid of points under q (each point
// adds mass 1 to its cell; paper Alg. 2) and returns every point's cell
// key, the first half of the paper's lookup table.
func Quantize(q *grid.Quantizer, points [][]float64) (*Grid, []Key) {
	d := q.Dim()
	size := make([]int, d)
	for j := range size {
		size[j] = q.Scale
	}
	cells := make([]Key, len(points))
	coords := make([]uint16, d)
	buf := make([]byte, 2*d)
	// Masses accumulate in a slice reached through a slot map probed with
	// the reused buffer: only a new cell allocates its key.
	slot := make(map[Key]int32)
	var keys []Key
	var masses []float64
	for i, p := range points {
		q.CellCoordsU16(p, coords)
		for j, c := range coords {
			putCoord(buf, j, int(c))
		}
		s, ok := slot[Key(buf)]
		if !ok {
			s = int32(len(keys))
			keys = append(keys, Key(buf))
			masses = append(masses, 0)
			slot[keys[s]] = s
		}
		masses[s]++
		cells[i] = keys[s]
	}
	g := &Grid{Size: size, Cells: make(map[Key]float64, len(keys))}
	for s, k := range keys {
		g.Cells[k] = masses[s]
	}
	return g, cells
}

// TransformDim applies one level of the analysis low-pass filter along
// dimension j, downsampling it by 2: each occupied cell scatters into at
// most ⌈len(Lo)/2⌉ output cells, with zero extension at the boundary
// (absent cells really have density zero). Input cells are visited in
// canonical order, so every output sum adds its terms in ascending
// coordinate order.
func TransformDim(g *Grid, j int, b wavelet.Basis) *Grid {
	if j < 0 || j >= g.Dim() {
		panic(fmt.Sprintf("oracle: TransformDim dimension %d out of range (grid is %d-D)", j, g.Dim()))
	}
	size := append([]int(nil), g.Size...)
	outLen := (g.Size[j] + 1) / 2
	size[j] = outLen
	buf := make([]byte, 2*g.Dim())
	// Sums accumulate in vals, reached through a slot map probed with the
	// reused buffer: only a new output cell allocates its key.
	slot := make(map[Key]int32, g.Len())
	vals := make([]float64, 0, g.Len())
	for _, key := range g.canonicalKeys() {
		v := g.Cells[key]
		i := key.Coord(j)
		copy(buf, key)
		for t, h := range b.Lo {
			pos := i + b.Center - t
			if pos < 0 || pos%2 != 0 || pos/2 >= outLen {
				continue
			}
			putCoord(buf, j, pos/2)
			s, ok := slot[Key(buf)]
			if !ok {
				s = int32(len(vals))
				vals = append(vals, 0)
				slot[Key(buf)] = s
			}
			vals[s] += h * v
		}
	}
	out := &Grid{Size: size, Cells: make(map[Key]float64, len(slot))}
	for k, s := range slot {
		out.Cells[k] = vals[s]
	}
	return out
}

// TransformLevels applies levels full decomposition levels (the low-pass
// filter along every dimension in turn; the separable d-D DWT of the
// paper's Alg. 3, keeping only the LL…L subband) and returns the
// approximation grid of each level, level 1 first. A level whose occupied
// cells outgrow growthCap of its input aborts with an error: long filters
// densify sparse high-dimensional grids exponentially.
func TransformLevels(g *Grid, b wavelet.Basis, levels int) ([]*Grid, error) {
	if levels < 1 {
		return nil, fmt.Errorf("grid: levels must be ≥ 1, got %d", levels)
	}
	out := make([]*Grid, 0, levels)
	cur := g
	for l := 0; l < levels; l++ {
		for j, s := range cur.Size {
			if s < 2 {
				return nil, fmt.Errorf("grid: dimension %d of size %d too small for level %d", j, s, l+1)
			}
		}
		maxCells := growthCap(cur.Len())
		for j := 0; j < g.Dim(); j++ {
			cur = TransformDim(cur, j, b)
			if cur.Len() > maxCells {
				return nil, fmt.Errorf(
					"grid: wavelet transform densified the sparse grid to %d cells after dimension %d (cap %d); use the 2-tap haar basis for high-dimensional data",
					cur.Len(), j+1, maxCells)
			}
		}
		out = append(out, cur)
	}
	return out, nil
}

// growthCap is a copy of internal/grid's growthCap: the per-level
// occupied-cell budget for an input of m cells, 32× with a 2¹⁶ floor and
// grid.DefaultTransformCellCap as the ceiling.
func growthCap(m int) int {
	return min(max(32*m, 1<<16), grid.DefaultTransformCellCap)
}

// maxFullDim is a copy of internal/grid's limit on Full connectivity.
const maxFullDim = 8

// Components labels the occupied cells of g with consecutive component ids
// from 0 by breadth-first search under the chosen connectivity, starting a
// new component at each unlabeled cell in SortedKeys order.
func Components(g *Grid, conn grid.Connectivity) (map[Key]int, error) {
	d := g.Dim()
	if conn == grid.Full && d > maxFullDim {
		return nil, fmt.Errorf("grid: Full connectivity limited to %d dimensions, grid has %d", maxFullDim, d)
	}
	labels := make(map[Key]int, g.Len())
	// intern maps a probe of the reused buffer to the grid's own key
	// without allocating; a miss is an unoccupied neighbor.
	intern := make(map[Key]Key, g.Len())
	for k := range g.Cells {
		intern[k] = k
	}
	next := 0
	var queue []Key
	buf := make([]byte, 2*d)
	off := make([]int, d)
	probe := func() {
		if nb, ok := intern[Key(buf)]; ok {
			if _, seen := labels[nb]; !seen {
				labels[nb] = next
				queue = append(queue, nb)
			}
		}
	}
	for _, start := range g.SortedKeys() {
		if _, seen := labels[start]; seen {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			cur := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if conn == grid.Faces {
				copy(buf, cur)
				for j := 0; j < d; j++ {
					c := cur.Coord(j)
					if c > 0 {
						putCoord(buf, j, c-1)
						probe()
					}
					if c+1 < g.Size[j] {
						putCoord(buf, j, c+1)
						probe()
					}
					putCoord(buf, j, c)
				}
				continue
			}
			// Full: every offset in {-1,0,1}ᵈ but the zero one, counted
			// mixed-radix with dimension 0 least significant.
			for j := range off {
				off[j] = -1
			}
			for {
				inside, zero := true, true
				for j, o := range off {
					c := cur.Coord(j) + o
					inside = inside && c >= 0 && c < g.Size[j]
					zero = zero && o == 0
					if inside {
						putCoord(buf, j, c)
					}
				}
				if inside && !zero {
					probe()
				}
				j := 0
				for ; j < d; j++ {
					if off[j]++; off[j] <= 1 {
						break
					}
					off[j] = -1
				}
				if j == d {
					break
				}
			}
		}
		next++
	}
	return labels, nil
}

// AppendShiftedKey appends to dst the packed key of k's ancestor after
// `levels` dyadic downsamplings (coordinates right-shifted), the second
// half of the lookup table, and returns dst.
func AppendShiftedKey(dst []byte, k Key, levels int) []byte {
	for j := 0; j < k.Dim(); j++ {
		c := k.Coord(j) >> uint(levels)
		dst = append(dst, byte(c), byte(c>>8))
	}
	return dst
}

// Cluster runs AdaWave (paper Alg. 1) on points and returns per-point
// labels plus diagnostics: quantize in the frame grid.NewQuantizerDatasetCtx
// computes at one worker, transform cfg.Levels levels, drop low
// coefficients, cut at the adaptive threshold, label components, renumber
// them by mass, and map every point through its base cell's ancestor. The
// embed step is not modelled: an embedding config is refused, and its
// oracle is Cluster on the rows the fitted embedder projects.
func Cluster(points [][]float64, cfg core.Config) (*core.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Embedding.Enabled() {
		return nil, errors.New("oracle: embeddings are not modelled; cluster the projected rows")
	}
	ds, err := pointset.FromSlices(points)
	if err != nil {
		return nil, err
	}
	if ds.N == 0 {
		return nil, grid.ErrNoPoints
	}
	cfg = resolveScale(cfg, ds.N, ds.D)
	q, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, cfg.Scale, 1)
	if err != nil {
		return nil, err
	}
	g, cells := Quantize(q, points)
	res := &core.Result{CellsQuantized: g.Len(), Levels: cfg.Levels, Scale: cfg.Scale, Labels: make([]int, len(points))}
	t := g
	if cfg.Levels > 0 {
		levels, err := TransformLevels(g, cfg.Basis, cfg.Levels)
		if err != nil {
			return nil, err
		}
		t = levels[len(levels)-1]
	}
	dropLowCoefficients(t, cfg.CoeffEpsilon)
	res.CellsTransformed = t.Len()
	labels := map[Key]int{}
	if t.Len() > 0 {
		res.Curve = t.SortedDensities()
		res.Threshold, res.ThresholdIndex = cfg.Threshold.Cut(res.Curve)
		kept := t.Threshold(res.Threshold)
		if kept.Len() == 0 {
			kept = t
		}
		res.CellsKept = kept.Len()
		comp, err := Components(kept, cfg.Connectivity)
		if err != nil {
			return nil, err
		}
		labels, res.NumClusters = relabelBySize(kept, comp, cfg.MinClusterCells, cfg.MinClusterMass)
	}
	var buf []byte
	for i, k := range cells {
		buf = AppendShiftedKey(buf[:0], k, cfg.Levels)
		if l, ok := labels[Key(buf)]; ok {
			res.Labels[i] = l
		} else {
			res.Labels[i] = core.Noise
		}
	}
	return res, nil
}

// resolveScale is a copy of internal/core's resolveScale: the automatic
// scale for Scale == 0, with Levels clamped so every dimension keeps at
// least two cells.
func resolveScale(cfg core.Config, n, d int) core.Config {
	if cfg.Scale == 0 {
		cfg.Scale = core.AutoScale(n, max(d, 1))
		for cfg.Levels > 0 && cfg.Scale>>uint(cfg.Levels) < 2 {
			cfg.Levels--
		}
	}
	return cfg
}

// dropLowCoefficients is the paper's “remove … the low value of scaling
// coefficients”: cells below eps × (max density) go, and zero or negative
// coefficients always do.
func dropLowCoefficients(t *Grid, eps float64) {
	var maxD float64
	for _, v := range t.Cells {
		maxD = max(maxD, v)
	}
	cut := eps * maxD
	if cut <= 0 {
		cut = 1e-12
	}
	t.DropBelow(cut)
}

// relabelBySize renumbers components 0…k−1 by decreasing mass (ties by
// original label; masses summed in canonical cell order) and drops those
// below the cell-count or mass-fraction floor, never the heaviest. It
// returns the surviving cells' labels and their cluster count.
func relabelBySize(kept *Grid, comp map[Key]int, minCells int, minMassFrac float64) (map[Key]int, int) {
	n := 0
	for _, l := range comp {
		n = max(n, l+1)
	}
	cells := make([]int, n)
	mass := make([]float64, n)
	for _, k := range kept.canonicalKeys() {
		cells[comp[k]]++
		mass[comp[k]] += kept.Cells[k]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return mass[order[a]] > mass[order[b]] })
	remap := make([]int, n)
	next := 0
	for rank, c := range order {
		if rank > 0 && (cells[c] < minCells || minMassFrac > 0 && mass[c] < minMassFrac*mass[order[0]]) {
			remap[c] = core.Noise
			continue
		}
		remap[c] = next
		next++
	}
	out := make(map[Key]int, len(comp))
	for k, l := range comp {
		if remap[l] != core.Noise {
			out[k] = remap[l]
		}
	}
	return out, next
}
