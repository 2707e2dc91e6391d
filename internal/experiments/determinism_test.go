package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/tech"
	"repro/internal/topology"
)

// Same seed and Options must produce bit-identical results whether the
// figure runners execute serially or on the full worker pool: each
// simulation owns its RNG and network, and the shared selection memo is
// keyed on everything selection consumes.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// forEach concurrency is set by Workers, not GOMAXPROCS, so even a
	// single-CPU machine interleaves the worker goroutines.
	pool := runtime.GOMAXPROCS(0)
	if pool < 4 {
		pool = 4
	}
	m := topology.New10x10()
	opts := Options{Cycles: 1200, ProfileCycles: 800, Seed: 9, Histograms: true}

	// One static and one adaptive design: covers the plain path and the
	// memoized shortcut-selection path without Fig7's full design sweep.
	designs := []Design{
		{Kind: Static, Width: tech.Width4B},
		{Kind: Adaptive, RFRouters: 50, Width: tech.Width4B},
	}
	capture := func(workers int) Fig7Result {
		prev := Workers
		Workers = workers
		defer func() { Workers = prev }()
		return compareDesigns(m, designs, opts)
	}

	serial := capture(1)
	parallelRun := capture(pool)

	if !reflect.DeepEqual(serial, parallelRun) {
		t.Errorf("Fig7 differs between Workers=1 and Workers=%d:\nserial:   %+v\nparallel: %+v",
			pool, serial, parallelRun)
	}

	// And a repeat at full parallelism must match itself (no run-order or
	// map-iteration dependence hiding in the cache path).
	again := capture(pool)
	if !reflect.DeepEqual(parallelRun, again) {
		t.Error("repeated parallel run differs from the first")
	}
}
