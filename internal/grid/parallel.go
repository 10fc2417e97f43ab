package grid

import (
	"context"
	"sync"

	"adawave/internal/sched"
)

// ParallelRanges splits [0, n) into at most workers contiguous ranges and
// runs fn on each concurrently, passing a distinct worker index per range.
// With workers ≤ 1 (or n ≤ 1) fn runs inline on the whole range. It returns
// after every range has been processed.
func ParallelRanges(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	w := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
		w++
	}
	wg.Wait()
}

// ParallelRangesCtx is ParallelRanges sourcing its shard execution from the
// worker pool carried by ctx (see internal/sched), charged to the context's
// tenant. The pool replicates ParallelRanges' range carving exactly, so the
// computed results are bit-identical either way — only the scheduling of the
// ranges changes. Without a pool in ctx it falls back to spawning goroutines.
func ParallelRangesCtx(ctx context.Context, n, workers int, fn func(worker, lo, hi int)) {
	if p, ok := sched.PoolFrom(ctx); ok {
		p.Shards(sched.TenantFrom(ctx), n, workers, fn)
		return
	}
	ParallelRanges(n, workers, fn)
}

// carvedRanges returns the number of ranges ParallelRanges carves [0, n)
// into for workers, which can be fewer than workers.
func carvedRanges(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}
