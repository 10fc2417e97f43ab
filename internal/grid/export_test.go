package grid

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
// worker count: a dense call counts every shard into the summed table
// (summed); otherwise every shard is radix-sorted (radix).
func ShardKernels(q *Quantizer, n, workers int) (summed, radix int) {
	workers = quantizeWorkers(n, workers)
	ranges := carvedRanges(n, workers)
	if _, ok := denseCall(q.Scale, q.Dim(), n, workers, n); ok {
		return ranges, 0
	}
	return 0, ranges
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
