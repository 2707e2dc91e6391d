package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// point is one design point under one probabilistic trace: what every
// workload runs, in different numbers and through different entry points.
type point struct {
	design  experiments.Design
	pattern traffic.Pattern
	opts    experiments.Options // defaults applied
}

func newPoint(kind experiments.DesignKind, width tech.LinkWidth, pat traffic.Pattern, opts experiments.Options) point {
	d := experiments.Design{Kind: kind, Width: width}
	if kind == experiments.Adaptive {
		d.RFRouters = 50
	}
	return point{design: d, pattern: pat, opts: opts.WithDefaults()}
}

func (p point) gen(m *topology.Mesh) traffic.Generator {
	return traffic.NewProbabilistic(m, p.pattern, p.opts.Rate, p.opts.Seed)
}

// combos is the fixed design x width x trace grid of the sweep
// workload, in a fixed order so that a run's mix of point costs does
// not depend on its seed.
func combos() []point {
	var out []point
	for _, k := range []experiments.DesignKind{experiments.Baseline, experiments.Static, experiments.WireStatic} {
		for _, w := range tech.Widths() {
			for _, pat := range traffic.Patterns() {
				out = append(out, newPoint(k, w, pat, experiments.Options{}))
			}
		}
	}
	return out
}

// checkResult is the invariant every simulation must meet: it drained,
// and every injected packet was ejected or counted lost.
func checkResult(r experiments.Result) error {
	s := r.Stats
	if !r.Drained {
		return fmt.Errorf("%s/%s did not drain: %d packets stranded", r.Workload, r.Design, r.Drain.Stranded)
	}
	if s.PacketsInjected != s.PacketsEjected+s.PacketsLost {
		return fmt.Errorf("%s/%s: %d packets injected but %d ejected and %d lost",
			r.Workload, r.Design, s.PacketsInjected, s.PacketsEjected, s.PacketsLost)
	}
	return nil
}

// decomposed is what one call-by-call run of a point produced.
type decomposed struct {
	cfg     noc.Config
	stats   noc.Stats
	drain   noc.DrainReport
	allocMB float64
}

// decompose runs p through the layers' public entry points one call at
// a time, each under a child span of parent: shortcut selection
// (FrequencyMatrix and AdaptiveShortcuts, or StaticShortcuts), the
// point's fingerprint, NewChecked, the Tick/Step injection loop and
// DrainWithReport. It is what experiments.Build followed by
// experiments.Run does; callers compare the outcome with a run of the
// same point through a production entry point.
func decompose(parent *active, m *topology.Mesh, p point) (decomposed, error) {
	d, opts := p.design, p.opts
	cfg := noc.Config{Mesh: m, Width: d.Width, Multicast: d.Multicast}
	switch d.Kind {
	case experiments.Baseline:
	case experiments.Static, experiments.WireStatic:
		sp := parent.Child("experiments.StaticShortcuts")
		cfg.Shortcuts = experiments.StaticShortcuts(m, tech.ShortcutBudget)
		sp.End()
		cfg.WireShortcuts = d.Kind == experiments.WireStatic
	case experiments.Adaptive:
		cfg.RFEnabled = m.RFPlacement(d.RFRouters)
		sp := parent.Child("traffic.FrequencyMatrix")
		freq := traffic.FrequencyMatrix(p.gen(m), m.N(), opts.ProfileCycles)
		sp.End()
		sp = parent.Child("experiments.AdaptiveShortcuts")
		cfg.Shortcuts = experiments.AdaptiveShortcuts(m, cfg.RFEnabled, freq, tech.ShortcutBudget)
		sp.End()
	default:
		return decomposed{}, fmt.Errorf("no decomposition for design %s", d.Name())
	}
	gen := p.gen(m)
	sp := parent.Child("experiments.PointFingerprint")
	_ = experiments.PointFingerprint(cfg, gen.Name(), opts)
	sp.End()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = parent.Child("noc.NewChecked")
	n, err := noc.NewChecked(cfg)
	sp.End()
	if err != nil {
		return decomposed{}, err
	}
	loopStart := time.Now()
	var tick, step time.Duration
	t0 := loopStart
	for now := int64(0); now < opts.Cycles; now++ {
		gen.Tick(now, n.Inject)
		t1 := time.Now()
		n.Step()
		t2 := time.Now()
		tick += t1.Sub(t0)
		step += t2.Sub(t1)
		t0 = t2
	}
	parent.Aggregate("traffic.Generator.Tick", loopStart, tick, opts.Cycles)
	parent.Aggregate("noc.Network.Step", loopStart.Add(tick), step, opts.Cycles)
	sp = parent.Child("noc.Network.DrainWithReport")
	rep := n.DrainWithReport(opts.DrainCycles)
	sp.EndCount(rep.CyclesUsed)
	runtime.ReadMemStats(&after)
	return decomposed{
		cfg:     cfg,
		stats:   n.Stats(),
		drain:   rep,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}, nil
}

// prober decomposes a sample of a workload's points in a traced run and
// checks each against the result a production entry point gave for it.
type prober struct {
	m    *topology.Mesh
	root *active

	points             int
	allocMB            float64
	drain, flits, hops int64
}

func newProber(tr *Tracer, m *topology.Mesh) *prober {
	return &prober{m: m, root: tr.Root("probe")}
}

// check decomposes p and compares it with ref, the production result
// for the same point.
func (pr *prober) check(p point, ref experiments.Result) error {
	sp := pr.root.Child("probe.point")
	dec, err := decompose(sp, pr.m, p)
	if err == nil {
		enc := sp.Child("experiments.MarshalResult")
		_, err = experiments.MarshalResult(ref)
		enc.End()
	}
	sp.End()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(dec.stats, ref.Stats) {
		return fmt.Errorf("%s/%s: the call-by-call run's statistics differ from the production run's", p.pattern, p.design.Name())
	}
	if !dec.drain.Drained {
		return errors.New("the call-by-call run did not drain")
	}
	pr.add(dec)
	return nil
}

// add counts a decomposed point toward the probe's metrics.
func (pr *prober) add(dec decomposed) {
	pr.points++
	pr.allocMB += dec.allocMB
	pr.drain += dec.drain.CyclesUsed
	pr.flits += dec.stats.FlitsEjected
	pr.hops += dec.stats.MeshFlitHops
}

// finish closes the probe and adds its counted metrics to layers.
func (pr *prober) finish(layers map[string]float64) {
	pr.root.End()
	if pr.points > 0 {
		layers["noc.alloc_mb_per_point"] = pr.allocMB / float64(pr.points)
	}
	layers["noc.drain_cycles"] = float64(pr.drain)
	layers["noc.flits_ejected"] = float64(pr.flits)
	layers["noc.flit_hops"] = float64(pr.hops)
}

// probeLayers reads the per-call costs off the spans decompose records.
func probeLayers(spans []Span) map[string]float64 {
	type agg struct {
		n, count, ns int64
	}
	by := map[string]*agg{}
	stepParents := map[uint64]bool{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.count += s.Count
		a.ns += s.dur()
		if s.Name == "noc.Network.Step" {
			stepParents[s.ParentID] = true
		}
	}
	get := func(name string) agg {
		if a := by[name]; a != nil {
			return *a
		}
		return agg{}
	}
	out := map[string]float64{}
	mean := func(metric, span string, unit time.Duration) {
		if a := get(span); a.n > 0 {
			out[metric] = float64(a.ns) / float64(a.n) / float64(unit)
		}
	}
	perCount := func(metric, span string) {
		if a := get(span); a.count > 0 {
			out[metric] = float64(a.ns) / float64(a.count)
		}
	}
	mean("experiments.fingerprint_us", "experiments.PointFingerprint", time.Microsecond)
	mean("experiments.encode_us", "experiments.MarshalResult", time.Microsecond)
	mean("noc.new_us", "noc.NewChecked", time.Microsecond)
	perCount("traffic.tick_ns", "traffic.Generator.Tick")
	perCount("noc.step_ns", "noc.Network.Step")
	perCount("noc.drain_step_ns", "noc.Network.DrainWithReport")

	fm, as, ss := get("traffic.FrequencyMatrix"), get("experiments.AdaptiveShortcuts"), get("experiments.StaticShortcuts")
	out["shortcut.adaptive_calls"] = float64(as.n)
	out["shortcut.static_calls"] = float64(ss.n)
	if calls := as.n + ss.n; calls > 0 {
		out["shortcut.select_ms"] = float64(fm.ns+as.ns+ss.ns) / float64(calls) / float64(time.Millisecond)
	}
	if fm.ns+as.ns > 0 {
		out["traffic.profile_share"] = float64(fm.ns) / float64(fm.ns+as.ns)
	}
	var pointNS int64
	for _, s := range spans {
		if stepParents[s.SpanID] {
			pointNS += s.dur()
		}
	}
	if pointNS > 0 {
		out["noc.step_share"] = float64(get("noc.Network.Step").ns) / float64(pointNS)
	}
	return out
}

// spanShare is the summed duration of the spans named name over that of
// the root spans named root.
func spanShare(spans []Span, name, root string) float64 {
	var num, den int64
	for _, s := range spans {
		switch {
		case s.Name == name:
			num += s.dur()
		case s.ParentID == 0 && s.Name == root:
			den += s.dur()
		}
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
