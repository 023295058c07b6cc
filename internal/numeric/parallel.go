package numeric

import (
	"sync"
	"sync/atomic"
)

// ShardSpan is the fixed block length used to partition index ranges for the
// parallel kernels in this package. It is a constant so that shard boundaries
// depend only on the problem size, never on the worker count — the property
// that keeps parallel reductions bit-identical to their serial counterparts:
// each shard accumulates into its own partial result and callers combine the
// partials in shard order.
const ShardSpan = 16

// NumShards returns how many ShardSpan-sized blocks cover [0, n).
func NumShards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ShardSpan - 1) / ShardSpan
}

// ShardBounds returns the half-open index range [lo, hi) of block s of [0, n).
func ShardBounds(n, s int) (lo, hi int) {
	lo = s * ShardSpan
	hi = lo + ShardSpan
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ParallelFor runs fn(s) for every shard index s in [0, shards). At most
// workers goroutines run concurrently; workers <= 1 or a single shard runs
// inline on the calling goroutine in ascending order. Shards are claimed
// dynamically, so fn must not care which goroutine runs which shard — derive
// all boundaries from the problem size (ShardBounds), never from the worker
// count, and results stay bit-identical for any workers value.
//
// This is the repository's one data-parallel loop (evalpool.Pool and the
// evaluator's dataset fan-out run on it), and they rely on how it ends: it
// returns only when every worker has, and a panic in fn — which ends the
// worker it happened on, the others finishing the remaining shards — is
// re-raised here with its value unchanged, the first one captured if several.
func ParallelFor(workers, shards int, fn func(s int)) {
	if shards <= 0 {
		return
	}
	if workers > shards {
		workers = shards
	}
	if workers <= 1 || shards == 1 {
		for s := 0; s < shards; s++ {
			fn(s)
		}
		return
	}
	type panicBox struct{ val any }
	var next atomic.Int64
	var panicked atomic.Pointer[panicBox]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &panicBox{val: r})
				}
			}()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
	if b := panicked.Load(); b != nil {
		panic(b.val)
	}
}

// GrowFloats returns s resized to length n, reusing its backing array when
// the capacity allows. The contents are unspecified (callers overwrite).
func GrowFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
