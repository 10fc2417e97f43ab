package grid

import "sync"

// Unexported helpers the external test files (package grid_test, which
// import the internal/oracle reference) need.

var (
	GrowthCap           = growthCap
	CmpCoords           = cmpCoords
	TransformDimFlatCtx = transformDimFlatCtx
	ParallelCellCutoff  = parallelCellCutoff
	MaxFullDim          = maxFullDim
	RandomDataset       = randomDataset
	QuantizeDataset     = quantizeDataset
)

// ShardKernels reports how QuantizeDatasetCtx quantizes n rows at the given
// worker count. When every shard's rows cover the cell space the call is
// dense and all its shards are counted into the summed table (summed);
// otherwise each shard takes the per-shard dense or radix kernel.
func ShardKernels(q *Quantizer, n, workers int) (summed, dense, radix int) {
	if workers <= 1 || n < parallelCellCutoff {
		workers = 1
	}
	var mu sync.Mutex
	ParallelRanges(n, workers, func(_, lo, hi int) {
		_, ok := denseCellSpace(q.Scale, q.Dim(), hi-lo)
		mu.Lock()
		defer mu.Unlock()
		if ok {
			dense++
		} else {
			radix++
		}
	})
	if radix == 0 {
		return dense, 0, 0
	}
	return 0, dense, radix
}

// TransformKernels runs fn and reports how many windows each transform
// kernel summed during it: the dense suffix table and the slab merge. With
// forceMerge set, every window fn's transforms sweep is merged.
func TransformKernels(forceMerge bool, fn func()) (dense, merge int64) {
	mergeOnly = forceMerge
	defer func() { mergeOnly = false }()
	d0, m0 := sweptWindows[denseKernel].Load(), sweptWindows[mergeKernel].Load()
	fn()
	return sweptWindows[denseKernel].Load() - d0, sweptWindows[mergeKernel].Load() - m0
}
