package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// topSpare returns the spare network takeNetwork would hand out next
// (nil when none is kept).
func topSpare() *noc.Network {
	spareNets.Lock()
	defer spareNets.Unlock()
	if len(spareNets.nets) == 0 {
		return nil
	}
	return spareNets.nets[len(spareNets.nets)-1]
}

// isSpare reports whether n is kept for reuse.
func isSpare(n *noc.Network) bool {
	spareNets.Lock()
	defer spareNets.Unlock()
	for _, s := range spareNets.nets {
		if s == n {
			return true
		}
	}
	return false
}

// cancelAtGen cancels its run's context at a given tick; RunContext
// notices at its next 256-cycle check and returns an interrupted result.
type cancelAtGen struct {
	traffic.Generator
	at     int64
	cancel context.CancelFunc
}

func (g *cancelAtGen) Tick(now int64, inject func(noc.Message)) {
	if now == g.at {
		g.cancel()
	}
	g.Generator.Tick(now, inject)
}

// TestRunContextReuseMatchesFresh runs a mixed sequence of points —
// link widths, shortcut sets, wire shortcuts, mesh sizes, VC counts and
// depths, link faults, a cancelled run — through RunContext,
// each on the network the previous one gave back, and wants the
// MarshalResult bytes of the same point on a new network.
func TestRunContextReuseMatchesFresh(t *testing.T) {
	m10, m6 := topology.New10x10(), topology.New(6, 6)
	static := shortcut.Static(m10, 16)
	steps := []struct {
		name     string
		cfg      noc.Config
		pat      traffic.Pattern
		hist     bool
		cancelAt int64
	}{
		{"baseline-16B", noc.Config{Mesh: m10, Width: tech.Width16B}, traffic.Uniform, false, 0},
		{"static-4B", noc.Config{Mesh: m10, Width: tech.Width4B, Shortcuts: static}, traffic.HotBiDF, true, 0},
		{"static-8B", noc.Config{Mesh: m10, Width: tech.Width8B, Shortcuts: static}, traffic.HotBiDF, false, 0},
		{"static-16B-cancelled", noc.Config{Mesh: m10, Width: tech.Width16B, Shortcuts: static}, traffic.Hotspot1, false, 600},
		{"wire-static-16B", noc.Config{Mesh: m10, Width: tech.Width16B, Shortcuts: static, WireShortcuts: true}, traffic.Hotspot1, false, 0},
		{"6x6-mesh", noc.Config{Mesh: m6, Width: tech.Width8B}, traffic.Uniform, false, 0},
		{"2-VCs-depth-2", noc.Config{Mesh: m10, Width: tech.Width8B, VCsPerClass: 2, BufDepth: 2}, traffic.BiDF, false, 0},
		{"half-shortcuts-adaptive", noc.Config{Mesh: m10, Width: tech.Width4B, Shortcuts: static[:8], AdaptiveRouting: true}, traffic.UniDF, false, 0},
		{"faulty-integrity", noc.Config{
			Mesh: m10, Width: tech.Width16B, Shortcuts: static,
			Fault: noc.FaultConfig{MeshBER: 1e-3, Seed: 9},
		}, traffic.Hotspot4, false, 0},
		{"baseline-16B-again", noc.Config{Mesh: m10, Width: tech.Width16B}, traffic.Uniform, false, 0},
	}
	run := func(t *testing.T, i int, fresh bool) []byte {
		s := steps[i]
		opts := Options{Cycles: 1500, DrainCycles: 50000, Rate: 0.02, Seed: int64(i + 1), Histograms: s.hist}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var gen traffic.Generator = traffic.NewProbabilistic(s.cfg.Mesh, s.pat, opts.Rate, opts.Seed)
		if s.cancelAt > 0 {
			gen = &cancelAtGen{Generator: gen, at: s.cancelAt, cancel: cancel}
		}
		var r Result
		var err error
		if fresh {
			n, nerr := noc.NewChecked(s.cfg)
			if nerr != nil {
				t.Fatal(nerr)
			}
			r, err = runNetwork(ctx, n, s.cfg, gen, opts.WithDefaults(), nil)
		} else {
			r, err = RunContext(ctx, s.cfg, gen, opts)
		}
		if s.cancelAt > 0 {
			if !errors.Is(err, context.Canceled) || !r.Interrupted {
				t.Fatalf("cancelled run: err %v, interrupted %v", err, r.Interrupted)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		blob, err := MarshalResult(r)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	run(t, 0, false) // leave a spare for the first step
	for i, s := range steps {
		spare := topSpare()
		if spare == nil {
			t.Fatal("no spare network kept")
		}
		got := run(t, i, false)
		if topSpare() != spare {
			t.Fatalf("%s: did not run on the spare network", s.name)
		}
		if want := run(t, i, true); !bytes.Equal(got, want) {
			t.Errorf("%s: reused network's result differs from a new network's:\n got %s\nwant %s", s.name, got, want)
		}
	}
}

// TestRunContextReuseConcurrent runs points of several shapes from
// several goroutines at once, so networks pass between goroutines
// through the spare list, and wants every point's fresh-network bytes.
func TestRunContextReuseConcurrent(t *testing.T) {
	m10, m6 := topology.New10x10(), topology.New(6, 6)
	static := shortcut.Static(m10, 16)
	cfgs := []noc.Config{
		{Mesh: m10, Width: tech.Width16B},
		{Mesh: m10, Width: tech.Width4B, Shortcuts: static},
		{Mesh: m6, Width: tech.Width8B, VCsPerClass: 3},
		{Mesh: m10, Width: tech.Width8B, Shortcuts: static[:5], BufDepth: 2},
	}
	point := func(g, k int) (noc.Config, traffic.Generator, Options) {
		cfg := cfgs[(g+k)%len(cfgs)]
		opts := Options{Cycles: 800, DrainCycles: 50000, Rate: 0.02, Seed: int64(10*g + k + 1)}
		return cfg, traffic.NewProbabilistic(cfg.Mesh, traffic.Uniform, opts.Rate, opts.Seed), opts
	}
	const goroutines, points = 4, 3
	got := make([][points][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < points; k++ {
				cfg, gen, opts := point(g, k)
				r, err := RunContext(context.Background(), cfg, gen, opts)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][k], _ = MarshalResult(r)
			}
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for k := 0; k < points; k++ {
			cfg, gen, opts := point(g, k)
			n, err := noc.NewChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runNetwork(context.Background(), n, cfg, gen, opts.WithDefaults(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := MarshalResult(r); !bytes.Equal(got[g][k], want) {
				t.Errorf("goroutine %d point %d: result differs from a new network's", g, k)
			}
		}
	}
}

// TestRunContextKeepsNoWatchedNetwork: a run that panics, or whose
// network the caller's observers saw, gives nothing back for reuse.
func TestRunContextKeepsNoWatchedNetwork(t *testing.T) {
	m := topology.New10x10()
	cfg := noc.Config{Mesh: m}
	opts := Options{Cycles: 500, DrainCycles: 50000, Rate: 0.01, Seed: 3}
	gen := func() traffic.Generator { return traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, opts.Seed) }

	t.Run("panic", func(t *testing.T) {
		if _, err := RunContext(context.Background(), cfg, gen(), opts); err != nil {
			t.Fatal(err)
		}
		spare := topSpare()
		if spare == nil {
			t.Fatal("no spare network kept after a normal run")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the run did not panic")
				}
			}()
			RunContext(context.Background(), cfg, &panicGen{Generator: gen(), at: 100}, opts)
		}()
		if isSpare(spare) {
			t.Error("a panicked run's network was kept for reuse")
		}
	})
	t.Run("observers", func(t *testing.T) {
		probe := &networkProbe{}
		if _, err := RunContext(context.Background(), cfg, gen(), opts, probe); err != nil {
			t.Fatal(err)
		}
		if probe.n == nil || isSpare(probe.n) {
			t.Error("a network the caller's observer saw was kept for reuse")
		}
	})
}

// TestSuperviseInprocReusesNetworks: an in-process supervised sweep of
// same-config portable points runs each point on the spare network the
// previous run gave back, and every point's result bytes equal a run
// on a new network.
func TestSuperviseInprocReusesNetworks(t *testing.T) {
	m := topology.New10x10()
	cfg := noc.Config{Mesh: m, Width: tech.Width8B, Shortcuts: shortcut.Static(m, 16)}
	opts := Options{Cycles: 600, DrainCycles: 50000, Rate: 0.02}
	var points []SweepPoint
	var reused []bool
	for seed := int64(1); seed <= 3; seed++ {
		gen := GenSpec{Workload: "uniform", Rate: opts.Rate, Seed: seed}
		o := opts
		o.Seed = seed
		pt, err := NewPortableSweepPoint(cfg, gen, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := pt.Run
		pt.Run = func(ctx context.Context, spec CheckpointSpec) (Result, error) {
			spare := topSpare()
			r, err := run(ctx, spec)
			reused = append(reused, spare != nil && topSpare() == spare)
			return r, err
		}
		points = append(points, pt)
	}
	if _, err := RunContext(context.Background(), cfg, traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, 1), opts); err != nil {
		t.Fatal(err) // leaves a spare for the first point
	}
	outs, err := Supervise(context.Background(), SuperviseConfig{Workers: 1}, points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, []bool{true, true, true}) {
		t.Errorf("points ran on the kept spare: %v, want all", reused)
	}
	for i, out := range outs {
		seed := int64(i + 1)
		n, err := noc.NewChecked(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Seed = seed
		want, err := runNetwork(context.Background(), n, cfg, traffic.NewProbabilistic(m, traffic.Uniform, opts.Rate, seed), o.WithDefaults(), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := MarshalResult(out.Result)
		if wantBlob, _ := MarshalResult(want); !bytes.Equal(got, wantBlob) {
			t.Errorf("point %d: result differs from a new network's", i)
		}
	}
}

// panicGen panics at a given tick.
type panicGen struct {
	traffic.Generator
	at int64
}

func (g *panicGen) Tick(now int64, inject func(noc.Message)) {
	if now == g.at {
		panic("injected test crash")
	}
	g.Generator.Tick(now, inject)
}

// networkProbe remembers the network it observes.
type networkProbe struct {
	noc.BaseObserver
	n *noc.Network
}

func (p *networkProbe) CycleEnd(n *noc.Network) { p.n = n }
