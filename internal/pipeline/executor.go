package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor runs independent work items across a worker pool. Determinism
// comes from the division of labour, not the schedule: item i always writes
// slot i of a caller-owned result slice, and items never communicate, so any
// interleaving produces the same results as running the items in order.
type Executor struct {
	// Workers is the pool size; 0 or negative means runtime.NumCPU(), and 1
	// runs items inline on the calling goroutine (no pool, no atomics).
	Workers int
	// Progress, when set, is called after each completed item with the
	// number of items finished so far and the total. Calls are serialized
	// and the counts ascend: 1, 2, …, total.
	Progress func(done, total int)
}

// PoolSize resolves the effective pool size: Workers, or runtime.NumCPU()
// when unset.
func (e *Executor) PoolSize() int {
	if e == nil || e.Workers <= 0 {
		return runtime.NumCPU()
	}
	return e.Workers
}

// ForEach runs fn(i) for every i in [0, n), each exactly once. With one
// worker the items run in index order on the calling goroutine — no
// goroutines, no atomics, and (without Progress) zero allocations, so a
// one-worker pool costs exactly what a plain loop costs; with more, workers
// pull indices from a shared counter, so items run in arbitrary order and
// concurrently — fn must be safe for that (the isolated pair and scan
// contexts are). ForEach returns after every item has finished.
func (e *Executor) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := e.PoolSize()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Kept free of any reference the pool path's goroutine closure
		// captures: sharing a variable with it would move the variable to
		// the heap and cost this path an allocation per call.
		if e == nil || e.Progress == nil {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		for i := 0; i < n; i++ {
			fn(i)
			e.Progress(i+1, n)
		}
		return
	}
	e.forEachPool(n, workers, fn)
}

// forEachPool is the multi-worker body of ForEach, split out so its
// goroutine closure cannot force heap allocations onto the inline path.
func (e *Executor) forEachPool(n, workers int, fn func(i int)) {
	var progress func(done, total int)
	if e != nil {
		progress = e.Progress
	}
	var next atomic.Int64
	var mu sync.Mutex // serializes Progress callbacks and guards done
	done := 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
				if progress == nil {
					continue // skip the done counter entirely
				}
				// Counted under the lock: counted outside it, two workers
				// could report their counts in the opposite order.
				mu.Lock()
				done++
				progress(done, n)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
