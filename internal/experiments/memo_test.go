package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/sweepcache"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// randomMemoConfig draws a random valid design point: width, VC shape,
// shortcut overlay and fault knobs all vary, so the property test sweeps
// a representative slice of the config space rather than one corner.
func randomMemoConfig(rng *rand.Rand, m *topology.Mesh) (noc.Config, traffic.Pattern, Options) {
	widths := []tech.LinkWidth{tech.Width4B, tech.Width8B, tech.Width16B}
	cfg := noc.Config{
		Mesh:        m,
		Width:       widths[rng.Intn(len(widths))],
		VCsPerClass: 2 + rng.Intn(3),
		BufDepth:    2 + rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		n := m.N()
		seen := map[[2]int]bool{}
		for len(cfg.Shortcuts) < 2+rng.Intn(3) {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to || seen[[2]int{from, to}] {
				continue
			}
			seen[[2]int{from, to}] = true
			cfg.Shortcuts = append(cfg.Shortcuts, shortcut.Edge{From: from, To: to})
		}
	}
	pats := traffic.Patterns()
	pat := pats[rng.Intn(len(pats))]
	opts := Options{
		Cycles:      400 + rng.Int63n(400),
		DrainCycles: 50000,
		Rate:        0.004 + rng.Float64()*0.006,
		Seed:        1 + rng.Int63n(1000),
	}
	return cfg, pat, opts
}

// TestMemoizedResultBitIdentical is the cache-correctness property: for
// randomized valid configs, the cached canonical bytes of a memoized
// point are bit-identical to a fresh uncached run with the same
// fingerprint + seed; and mutating one config field changes the
// fingerprint and misses the cache.
func TestMemoizedResultBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	m := topology.New10x10()
	rng := rand.New(rand.NewSource(20260808))

	for trial := 0; trial < 5; trial++ {
		cfg, pat, opts := randomMemoConfig(rng, m)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid config: %v", trial, err)
		}
		mkGen := func() traffic.Generator {
			return traffic.NewProbabilistic(m, pat, opts.Rate, opts.Seed)
		}
		cache := sweepcache.New(0)
		pt := NewSweepPoint(fmt.Sprintf("trial-%d", trial), cfg, mkGen, opts, nil)

		outs, err := Supervise(context.Background(), SuperviseConfig{
			Workers: 1, Cache: cache,
		}, []SweepPoint{pt})
		if err != nil {
			t.Fatalf("trial %d: supervised run: %v", trial, err)
		}
		if outs[0].Cached {
			t.Fatalf("trial %d: first run reported Cached", trial)
		}

		cachedBlob, ok := cache.Get(pt.Fingerprint)
		if !ok {
			t.Fatalf("trial %d: result not cached under fingerprint %s", trial, pt.Fingerprint)
		}

		// Fresh, cache-free run of the same point.
		fresh, err := RunContext(context.Background(), cfg, mkGen(), opts, CheckpointSpec{})
		if err != nil {
			t.Fatalf("trial %d: fresh run: %v", trial, err)
		}
		freshBlob, err := MarshalResult(fresh)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		if !bytes.Equal(cachedBlob, freshBlob) {
			t.Errorf("trial %d: cached bytes diverge from a fresh run\ncached: %s\nfresh:  %s",
				trial, cachedBlob, freshBlob)
		}

		// A second supervised run must be a pure hit with the identical
		// Result.
		outs2, err := Supervise(context.Background(), SuperviseConfig{
			Workers: 1, Cache: cache,
		}, []SweepPoint{pt})
		if err != nil {
			t.Fatalf("trial %d: second run: %v", trial, err)
		}
		if !outs2[0].Cached || outs2[0].Attempts != 0 {
			t.Errorf("trial %d: repeat run not served from cache (cached=%v attempts=%d)",
				trial, outs2[0].Cached, outs2[0].Attempts)
		}
		if !reflect.DeepEqual(outs2[0].Result, outs[0].Result) {
			t.Errorf("trial %d: cached Result differs from computed Result", trial)
		}

		// Mutate one config field: new fingerprint, cache miss.
		mutated := cfg
		mutated.BufDepth = cfg.BufDepth + 1
		mutFP := PointFingerprint(mutated, mkGen().Name(), opts)
		if mutFP == pt.Fingerprint {
			t.Fatalf("trial %d: BufDepth mutation kept fingerprint %s", trial, mutFP)
		}
		if _, ok := cache.Get(mutFP); ok {
			t.Errorf("trial %d: mutated fingerprint unexpectedly present in cache", trial)
		}

		// Mutating only the seed must change the fingerprint too.
		seedOpts := opts
		seedOpts.Seed = opts.Seed + 1
		if PointFingerprint(cfg, mkGen().Name(), seedOpts) == pt.Fingerprint {
			t.Errorf("trial %d: seed change kept the fingerprint", trial)
		}
	}
}

// TestSuperviseSingleFlight is the concurrency regression for
// experiments.Supervise: 100 goroutines submitting the same point
// concurrently through a shared cache must simulate it exactly once.
func TestSuperviseSingleFlight(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 600, DrainCycles: 50000, Rate: 0.008, Seed: 11}
	cfg := noc.Config{Mesh: m, Shortcuts: []shortcut.Edge{{From: 3, To: 96}}}
	mkGen := func() traffic.Generator {
		return traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, opts.Seed)
	}
	fp := PointFingerprint(cfg, mkGen().Name(), opts)

	var runs atomic.Int64
	mkPoint := func() SweepPoint {
		return SweepPoint{
			ID:          fp,
			Fingerprint: fp,
			Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
				runs.Add(1)
				return RunContext(ctx, cfg, mkGen(), opts, spec)
			},
		}
	}

	cache := sweepcache.New(0)
	const N = 100
	var wg sync.WaitGroup
	outcomes := make([]PointOutcome, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs, err := Supervise(context.Background(), SuperviseConfig{
				Workers: 1, Cache: cache, RetryBackoff: time.Millisecond,
			}, []SweepPoint{mkPoint()})
			errs[i] = err
			outcomes[i] = outs[0]
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("instrumented run counter = %d, want exactly 1 under %d concurrent submissions", got, N)
	}
	computed := 0
	var want Result
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		o := outcomes[i]
		if o.Err != nil {
			t.Fatalf("submission %d outcome: %v", i, o.Err)
		}
		if !o.Cached {
			computed++
			want = o.Result
		}
		if o.Fingerprint != fp {
			t.Errorf("submission %d fingerprint %q, want %q", i, o.Fingerprint, fp)
		}
	}
	if computed != 1 {
		t.Fatalf("%d submissions computed, want exactly 1", computed)
	}
	for i := 0; i < N; i++ {
		if !reflect.DeepEqual(outcomes[i].Result, want) {
			t.Fatalf("submission %d result diverges from the computed one", i)
		}
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Hits+s.Joins != N-1 {
		t.Errorf("cache stats %+v, want 1 miss and %d hits+joins", s, N-1)
	}
}

// TestSuperviseRecoversCorruptCacheEntry: a cached result whose bytes
// rot must degrade to a recompute, not a failed point. The poisoned
// entry is invalidated, the point re-simulated, and the fresh result is
// bit-identical to the original; the outcome is marked Recovered.
func TestSuperviseRecoversCorruptCacheEntry(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 600, DrainCycles: 50000, Rate: 0.008, Seed: 23}
	cfg := noc.Config{Mesh: m, Shortcuts: []shortcut.Edge{{From: 3, To: 96}}}
	mkGen := func() traffic.Generator {
		return traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, opts.Seed)
	}
	fp := PointFingerprint(cfg, mkGen().Name(), opts)

	var runs atomic.Int64
	pt := SweepPoint{
		ID:          fp,
		Fingerprint: fp,
		Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
			runs.Add(1)
			return RunContext(ctx, cfg, mkGen(), opts, spec)
		},
	}
	cache := sweepcache.New(0)
	sc := SuperviseConfig{Workers: 1, Cache: cache, RetryBackoff: time.Millisecond}

	outs, err := Supervise(context.Background(), sc, []SweepPoint{pt})
	if err != nil || outs[0].Err != nil {
		t.Fatalf("priming run: %v / %v", err, outs[0].Err)
	}
	want := outs[0].Result

	if !cache.Corrupt(fp) {
		t.Fatal("priming run left no cache entry to corrupt")
	}
	outs, err = Supervise(context.Background(), sc, []SweepPoint{pt})
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	o := outs[0]
	if o.Err != nil {
		t.Fatalf("corrupt cache entry failed the point: %v", o.Err)
	}
	if !o.Recovered {
		t.Error("outcome not marked Recovered")
	}
	if !reflect.DeepEqual(o.Result, want) {
		t.Error("recovered result diverges from the original")
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("simulation ran %d times, want 2 (prime + recovery)", got)
	}

	// Third submission: the reinserted entry is healthy again.
	outs, _ = Supervise(context.Background(), sc, []SweepPoint{pt})
	if o := outs[0]; o.Err != nil || !o.Cached || o.Recovered {
		t.Errorf("post-recovery hit: err=%v cached=%v recovered=%v, want clean hit", o.Err, o.Cached, o.Recovered)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("post-recovery hit re-ran the simulation (%d runs)", got)
	}
}

// TestSweepPointCost: NewSweepPoint carries the admission-time cost
// estimate, and the estimate scales with the requested window.
func TestSweepPointCost(t *testing.T) {
	small := Options{Cycles: 1000}.EstimatedCycles()
	big := Options{Cycles: 1_000_000}.EstimatedCycles()
	if small <= 1000 {
		t.Errorf("estimate %d for 1000 cycles should exceed the injection window (drain allowance)", small)
	}
	if big <= small {
		t.Errorf("estimate did not scale: %d (big) vs %d (small)", big, small)
	}
	// The drain allowance is bounded by the real drain budget.
	tight := Options{Cycles: 1_000_000, DrainCycles: 10}.EstimatedCycles()
	if tight != 1_000_010 {
		t.Errorf("estimate %d, want 1000010 (drain allowance clamped to DrainCycles)", tight)
	}

	m := topology.New10x10()
	opts := Options{Cycles: 700, Rate: 0.008, Seed: 5}
	cfg := noc.Config{Mesh: m}
	mkGen := func() traffic.Generator {
		return traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, opts.Seed)
	}
	pt := NewSweepPoint("p", cfg, mkGen, opts, nil)
	if pt.Cost != opts.EstimatedCycles() {
		t.Errorf("SweepPoint.Cost = %d, want %d", pt.Cost, opts.EstimatedCycles())
	}
}

// TestSuperviseFailureCarriesFingerprint: the partial-outcome error must
// name the failing point's fingerprint, not just its position.
func TestSuperviseFailureCarriesFingerprint(t *testing.T) {
	pt := SweepPoint{
		ID:          "doomed",
		Fingerprint: "cafe0123cafe0123cafe0123cafe0123",
		Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
			return Result{}, fmt.Errorf("synthetic failure")
		},
	}
	_, err := Supervise(context.Background(), SuperviseConfig{
		Workers: 1, RetryBackoff: time.Millisecond,
	}, []SweepPoint{pt})
	if err == nil {
		t.Fatal("Supervise returned nil error for a failing point")
	}
	if !strings.Contains(err.Error(), "doomed") || !strings.Contains(err.Error(), pt.Fingerprint) {
		t.Errorf("partial-outcome error %q does not carry the point ID and fingerprint", err)
	}
}

// TestSuperviseOnOutcomeStreams: the streaming callback fires exactly
// once per point, index-aligned, with the settled outcome.
func TestSuperviseOnOutcomeStreams(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 300, DrainCycles: 50000, Rate: 0.008, Seed: 3}
	var pts []SweepPoint
	for i := 0; i < 4; i++ {
		o := opts
		o.Seed = int64(i + 1)
		mk := func() traffic.Generator {
			return traffic.NewProbabilistic(m, traffic.Uniform, o.Rate, o.Seed)
		}
		pts = append(pts, NewSweepPoint(fmt.Sprintf("pt-%d", i), noc.Config{Mesh: m}, mk, o, nil))
	}

	var mu sync.Mutex
	got := map[int]PointOutcome{}
	outs, err := Supervise(context.Background(), SuperviseConfig{
		Workers: 2,
		OnOutcome: func(i int, o PointOutcome) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[i]; dup {
				t.Errorf("OnOutcome fired twice for index %d", i)
			}
			got[i] = o
		},
	}, pts)
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("OnOutcome fired for %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i].ID != outs[i].ID {
			t.Errorf("index %d: streamed ID %q != outcome ID %q", i, got[i].ID, outs[i].ID)
		}
	}
}
