package embed

import "adawave/internal/pointset"

// The serial projection loop the sharded kernel replaced, kept verbatim as
// the reference TestProjectMatchesReference compares against. Only its name
// changed: it was project.

// projectRef applies a k×inDim row-major matrix to every (optionally
// mean-centered) row of ds. It is the single projection kernel both
// embedders share, so "embedding inside the pipeline" and "manual
// projection by the caller" are the same float operations in the same
// order — the bit-identity equivalence the tests assert.
func projectRef(ds *pointset.Dataset, mean []float64, mat []float64, k int) *pointset.Dataset {
	out := pointset.New(k, ds.N)
	out.N = ds.N
	out.Data = out.Data[:ds.N*k]
	inDim := ds.D
	for i := 0; i < ds.N; i++ {
		row := ds.Data[i*inDim : (i+1)*inDim]
		dst := out.Data[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			comp := mat[j*inDim : (j+1)*inDim]
			var acc float64
			if mean != nil {
				for c, v := range row {
					acc += (v - mean[c]) * comp[c]
				}
			} else {
				for c, v := range row {
					acc += v * comp[c]
				}
			}
			dst[j] = acc
		}
	}
	return out
}
