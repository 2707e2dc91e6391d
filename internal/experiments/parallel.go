package experiments

import (
	"runtime"
	"sync"
)

// The figure runners fan independent simulations out over a bounded
// worker pool. Each simulation owns its network and generators, so the
// only shared state is shortcut.Adaptive's selection memo (single-flight
// and safe for concurrent use) and a figure plan's per-trace frequency
// matrices (each written once under a sync.Once, then only read).
// Results land in pre-sized slots, keeping output order deterministic
// regardless of scheduling.

// Workers bounds experiment parallelism. Defaults to GOMAXPROCS; tests
// and benchmarks may reduce it for determinism of timing measurements.
var Workers = runtime.GOMAXPROCS(0)

// forEach runs fn(i) for i in [0, n) on the worker pool.
func forEach(n int, fn func(int)) {
	workers := Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
