package experiments

import (
	"runtime"
	"sync"
)

// The figure runners and Supervise fan independent simulations out over
// a bounded worker pool. Each simulation owns its network and
// generators, so the only shared state is the selection memo behind
// shortcut.Static and shortcut.Adaptive and the profile memo behind
// BuildSpec. Both are single-flight, safe for concurrent use, and hand
// every caller its own copy. Results land in pre-sized slots, keeping
// output order deterministic regardless of scheduling.

// Workers bounds experiment parallelism. Defaults to GOMAXPROCS; tests
// and benchmarks may reduce it for determinism of timing measurements.
var Workers = runtime.GOMAXPROCS(0)

// forEach runs fn(i) for i in [0, n) on a pool of workers goroutines.
func forEach(workers, n int, fn func(int)) {
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
