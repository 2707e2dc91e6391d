package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const (
	// longCycles is a quarter of the paper's 1M-cycle traces: Step is
	// nearly all of a point's time at this length, and a run fits
	// several points, whose median is steadier than one point's time.
	longCycles = 250_000
	// buildReps is how many times set-up builds the long point's config.
	// Build does not use the adaptive memo, so each is a full selection.
	buildReps = 3
)

// runLongPoint builds one adaptive-50 4 B point on HotBiDF with
// experiments.Build, then simulates it with experiments.Run, one op per
// run of the point. Step does nearly all the work and set-up is paid
// once. Every op simulates the same input and must give the same
// statistics.
func runLongPoint(_ context.Context, e *env) (*result, error) {
	res := newResult()
	m := topology.New10x10()
	p := newPoint(experiments.Adaptive, tech.Width4B, traffic.HotBiDF,
		experiments.Options{Cycles: e.cycles(longCycles), Seed: derive(e.seed, 0)})
	if e.scale > 1 {
		p.opts.ProfileCycles = e.cycles(p.opts.ProfileCycles)
	}

	var cfg noc.Config
	var cfgFP string
	for i := 0; i < buildReps; i++ {
		t0 := time.Now()
		cfg = experiments.Build(m, p.design, p.gen(m), p.opts.ProfileCycles)
		res.setup = append(res.setup, time.Since(t0))
		fp := cfg.Fingerprint()
		if cfgFP != "" && fp != cfgFP {
			res.fail("Build gave two different configs for one design point")
		}
		cfgFP = fp
	}

	if e.tr != nil {
		root := e.tr.Root("long-point")
		dec, err := decompose(root, m, p)
		root.End()
		if err != nil {
			return nil, err
		}
		res.attempted = 1
		ref := experiments.Run(cfg, p.gen(m), p.opts)
		pr := newProber(e.tr, m)
		switch {
		case dec.cfg.Fingerprint() != cfgFP:
			res.fail("the call-by-call config differs from experiments.Build's")
		case !reflect.DeepEqual(dec.stats, ref.Stats):
			res.fail("the call-by-call run's statistics differ from experiments.Run's")
		default:
			enc := pr.root.Child("experiments.MarshalResult")
			_, _ = experiments.MarshalResult(ref)
			enc.End()
		}
		if err := checkResult(ref); err != nil {
			res.failed = 1
			res.fail("%v", err)
		}
		pr.add(dec)
		pr.finish(res.layers)
		return res, nil
	}

	// nproc closed-loop clients run the point side by side, as a user
	// running independent simulations on every core would.
	loop := newClosedLoop(e.budget)
	var mu sync.Mutex
	var first *experiments.Result
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for loop.next() {
				t0 := time.Now()
				r := experiments.Run(cfg, p.gen(m), p.opts)
				loop.done(time.Since(t0))
				mu.Lock()
				res.attempted++
				err := checkResult(r)
				if err == nil && first != nil && !reflect.DeepEqual(r.Stats, first.Stats) {
					err = fmt.Errorf("two runs of one point gave different statistics")
				}
				if err != nil {
					res.failed++
					res.fail("%v", err)
				}
				if first == nil {
					first = &r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.ops, res.elapsed, res.rssMB = loop.finish()
	res.facts["sim_cycles"] = float64(first.Stats.Cycles)
	res.facts["flits_ejected"] = float64(first.Stats.FlitsEjected)
	return res, nil
}
