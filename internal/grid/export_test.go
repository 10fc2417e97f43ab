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

// ShardKernels counts the shards QuantizeDatasetCtx puts through the dense
// and the radix kernel for n rows at the given worker count.
func ShardKernels(q *Quantizer, n, workers int) (dense, radix int) {
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
	return dense, radix
}
