package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// testConfig is a small shortcut design for supervisor tests.
func testConfig(m *topology.Mesh) noc.Config {
	return noc.Config{
		Mesh:      m,
		Shortcuts: []shortcut.Edge{{From: 0, To: 99}, {From: 90, To: 9}},
	}
}

// TestRunContextRejects: an invalid config is an error from the run
// loop, and an invalid generator spec an error from the point
// constructor, not a panic.
func TestRunContextRejects(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 3000, DrainCycles: 50000, Rate: 0.01, Seed: 42}
	gen := traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, opts.Seed)

	t.Run("bad config", func(t *testing.T) {
		bad := noc.Config{Mesh: m, Shortcuts: []shortcut.Edge{{From: 5, To: 5}}}
		if _, err := RunContext(context.Background(), bad, gen, opts); err == nil {
			t.Fatal("invalid config accepted")
		}
	})
	for name, spec := range map[string]GenSpec{
		"unknown workload":       {Workload: "nosuch"},
		"multicast locality 0":   {Workload: "uniform", Multicast: true},
		"multicast locality -1":  {Workload: "uniform", Multicast: true, MulticastLocality: -1},
		"multicast locality 101": {Workload: "uniform", Multicast: true, MulticastLocality: 101},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewPortableSweepPoint(noc.Config{Mesh: m}, spec, opts, nil); err == nil {
				t.Fatalf("invalid generator spec %+v accepted", spec)
			}
		})
	}
}

// panicOnceGen panics the first time the run crosses a trigger tick,
// then behaves like its base forever after (the panic consumed a flag
// shared across attempts) — modeling a transient crash a retry recovers
// from.
type panicOnceGen struct {
	base    *traffic.Prob
	trigger int64
	armed   *atomic.Bool
}

func (g *panicOnceGen) Name() string { return g.base.Name() }
func (g *panicOnceGen) Tick(now int64, inject func(m noc.Message)) {
	if now >= g.trigger && g.armed.CompareAndSwap(true, false) {
		panic("injected test crash")
	}
	g.base.Tick(now, inject)
}

// TestSuperviseIsolatesPanics: a sweep with one persistently panicking
// point must complete every other point, write a crash dump for the bad
// one, and report partial results with a non-nil error.
func TestSuperviseIsolatesPanics(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 800, DrainCycles: 50000, Rate: 0.008, Seed: 7}
	dir := t.TempDir()

	gen := GenSpec{Workload: "uniform", Rate: opts.Rate, Seed: opts.Seed}
	good := func(id string, cfg noc.Config) SweepPoint {
		pt, err := NewPortableSweepPoint(cfg, gen, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		pt.ID = id
		return pt
	}
	points := []SweepPoint{
		good("good-a", testConfig(m)),
		{
			ID:   "bad",
			Meta: map[string]string{"design": "broken"},
			Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
				panic("deliberate failure")
			},
		},
		good("good-b", noc.Config{Mesh: m}),
	}

	outs, err := Supervise(context.Background(), SuperviseConfig{
		Workers: 2, Retries: 1, RetryBackoff: time.Millisecond,
		Dir: dir,
	}, points)
	if err == nil {
		t.Fatal("Supervise returned nil error despite a failed point")
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outs))
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Errorf("point %s failed: %v", outs[i].ID, outs[i].Err)
		}
		if outs[i].Result.Stats.PacketsInjected == 0 {
			t.Errorf("point %s produced no traffic", outs[i].ID)
		}
	}
	bad := outs[1]
	if bad.Err == nil || !bad.Panicked {
		t.Fatalf("bad point: Err=%v Panicked=%v", bad.Err, bad.Panicked)
	}
	if bad.Attempts != 2 {
		t.Errorf("bad point attempts = %d, want 2 (1 + 1 retry)", bad.Attempts)
	}
	blob, err := os.ReadFile(bad.CrashDump)
	if err != nil {
		t.Fatalf("crash dump: %v", err)
	}
	var dump CrashDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("crash dump not valid JSON: %v", err)
	}
	if dump.ID != "bad" || !strings.Contains(dump.Panic, "deliberate failure") || dump.Stack == "" {
		t.Errorf("crash dump incomplete: %+v", dump)
	}
	if dump.Meta["design"] != "broken" {
		t.Errorf("crash dump meta = %v", dump.Meta)
	}
	if dump.Cycle != -1 || dump.Audit != nil {
		t.Errorf("a panic before any network was built dumped cycle %d, audit %v; want -1, none", dump.Cycle, dump.Audit)
	}
}

// TestSuperviseRetryRerunsFromCycleZero: a point that crashes once
// mid-run is retried from cycle 0, and the retry's result encodes to
// exactly the bytes of an uninterrupted run.
func TestSuperviseRetryRerunsFromCycleZero(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 2000, DrainCycles: 50000, Rate: 0.01, Seed: 5}
	cfg := testConfig(m)
	dir := t.TempDir()

	want, err := MarshalResult(Run(cfg, traffic.NewProbabilistic(m, traffic.BiDF, opts.Rate, opts.Seed), opts))
	if err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	armed.Store(true)
	pt := SweepPoint{
		ID: "flaky",
		Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
			gen := &panicOnceGen{
				base:    traffic.NewProbabilistic(m, traffic.BiDF, opts.Rate, opts.Seed),
				trigger: 1100,
				armed:   &armed,
			}
			return RunContext(ctx, cfg, gen, opts)
		},
	}
	outs, err := Supervise(context.Background(), SuperviseConfig{
		Workers: 1, Retries: 2, RetryBackoff: time.Millisecond, Dir: dir,
	}, []SweepPoint{pt})
	if err != nil {
		t.Fatalf("Supervise: %v (outcome err: %v)", err, outs[0].Err)
	}
	out := outs[0]
	if out.Attempts != 2 || !out.Panicked {
		t.Errorf("attempts=%d panicked=%v, want a crash then a clean retry", out.Attempts, out.Panicked)
	}
	got, err := MarshalResult(out.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("retried run's result bytes diverge from the uninterrupted run's")
	}
	dumpPath := filepath.Join(dir, "flaky.crash.json")
	if out.CrashDump != dumpPath {
		t.Errorf("crash dump path %q, want %q", out.CrashDump, dumpPath)
	}
	blob, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("crash dump: %v", err)
	}
	var dump CrashDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("crash dump not valid JSON: %v", err)
	}
	if dump.Cycle != 1100 {
		t.Errorf("crash dump cycle %d, want 1100 (the tick the generator panicked at)", dump.Cycle)
	}
	if dump.Audit == nil {
		t.Error("crash dump carries no audit of the network")
	}
	if !strings.Contains(dump.Stack, "(*panicOnceGen).Tick") {
		t.Errorf("crash dump stack does not name the panicking frame:\n%s", dump.Stack)
	}
}

// TestSupervisePointTimeout: a point longer than PointTimeout fails every
// attempt, each starting from cycle 0, and ends after Retries+1 attempts
// with an error wrapping context.DeadlineExceeded. A timeout is not a
// crash: no dump is written.
func TestSupervisePointTimeout(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 50_000_000, Rate: 0.01, Seed: 3}
	dir := t.TempDir()
	var startCycles []int64
	pt := SweepPoint{
		ID: "slow",
		Run: func(ctx context.Context, _ CheckpointSpec) (Result, error) {
			gen := traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, opts.Seed)
			return RunContext(ctx, testConfig(m), gen, opts, &firstCycleProbe{cycles: &startCycles})
		},
	}

	outs, err := Supervise(context.Background(), SuperviseConfig{
		Workers: 1, Retries: 1, RetryBackoff: time.Millisecond,
		PointTimeout: 50 * time.Millisecond, Dir: dir,
	}, []SweepPoint{pt})
	if err == nil {
		t.Fatal("Supervise returned nil error for a point that always times out")
	}
	out := outs[0]
	if out.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (Retries+1)", out.Attempts)
	}
	if !errors.Is(out.Err, context.DeadlineExceeded) {
		t.Errorf("outcome error %v does not wrap context.DeadlineExceeded", out.Err)
	}
	if !reflect.DeepEqual(startCycles, []int64{0, 0}) {
		t.Errorf("attempts started at cycles %v, want [0 0]", startCycles)
	}
	if out.Panicked || out.CrashDump != "" {
		t.Errorf("timeout reported as a crash: panicked=%v dump=%q", out.Panicked, out.CrashDump)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("crash dir holds %v (err %v), want nothing", entries, err)
	}
}

// TestSuperviseHonorsCancellation: a cancelled context stops the sweep
// without retry churn.
func TestSuperviseHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int32{}
	var pts []SweepPoint
	for i := 0; i < 4; i++ {
		pts = append(pts, SweepPoint{
			ID: string(rune('a' + i)),
			Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
				ran.Add(1)
				return Result{}, ctx.Err()
			},
		})
	}
	outs, err := Supervise(ctx, SuperviseConfig{Workers: 2, Retries: 3}, pts)
	if err == nil {
		t.Fatal("cancelled Supervise returned nil error")
	}
	for _, o := range outs {
		if o.Err == nil {
			t.Errorf("point %s succeeded under cancelled context", o.ID)
		}
		if o.Attempts > 1 {
			t.Errorf("point %s retried %d times under cancelled context", o.ID, o.Attempts)
		}
	}
}

// firstCycleProbe appends the cycle its run's first Step simulated
// (the network's clock at the first CycleEnd, less one).
type firstCycleProbe struct {
	noc.BaseObserver
	cycles *[]int64
	seen   bool
}

func (p *firstCycleProbe) CycleEnd(n *noc.Network) {
	if !p.seen {
		p.seen = true
		*p.cycles = append(*p.cycles, n.Now()-1)
	}
}
