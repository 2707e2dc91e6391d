package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/topology"
)

const (
	// sweepCycles is the injection window of a sweep-short point: short
	// enough that per-point fixed costs outweigh stepping.
	sweepCycles = 2000
	// sweepSample is how many points of the first lap, every other one,
	// run again in process, to check the pool's bytes and measure the
	// executor's transit cost; sweepProbe of them, spread over the grid's
	// designs, are decomposed in a traced run.
	sweepSample = 32
	sweepProbe  = 8
)

type designWidth struct {
	kind  experiments.DesignKind
	width tech.LinkWidth
}

// runSweepShort runs laps of the 63-point design x width x trace grid,
// 2000 cycles a point, each lap one experiments.Supervise call that
// dispatches the points to a WorkerPool of nproc worker processes (this
// program re-executed as experiments.WorkerMain). Per-point fixed costs
// dominate: construction, allocation, executor dispatch, frame codec
// and JSON transit.
func runSweepShort(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	m := topology.New10x10()
	grid := combos()

	// Set-up builds the config of every design and width in the grid,
	// which is where static shortcut selection runs.
	var cfgs map[designWidth]noc.Config
	for i := 0; i < buildReps; i++ {
		t0 := time.Now()
		cfgs = map[designWidth]noc.Config{}
		for _, p := range grid {
			k := designWidth{p.design.Kind, p.design.Width}
			if _, ok := cfgs[k]; !ok {
				cfgs[k] = experiments.Build(m, p.design, nil, 0)
			}
		}
		res.setup = append(res.setup, time.Since(t0))
	}

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pool, err := experiments.NewWorkerPool(experiments.WorkerPoolConfig{
		Command: []string{exe},
		Env:     []string{workerEnv + "=1"},
		Workers: e.nproc,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		pool.Close()
		if err := waitChildren(10 * time.Second); err != nil {
			res.fail("worker pool: %v", err)
		}
	}()

	type sample struct {
		pt     experiments.SweepPoint // as constructed, before timing was wrapped round Run
		p      point
		exec   time.Duration
		result experiments.Result
	}
	var first []sample
	digest := sha256.New()
	var pointTime, superviseTime time.Duration

	root := e.tr.Root("sweep-short")
	laps := newClosedLoop(e.budget)
	for lap := 0; laps.next(); lap++ {
		lapStart := time.Now()
		pts := make([]experiments.SweepPoint, len(grid))
		execs := make([]time.Duration, len(grid))
		var sup *active // the lap's Supervise span, opened once the points exist
		for j, p := range grid {
			s := derive(e.seed, int64(lap*len(grid)+j))
			p.opts = experiments.Options{Cycles: e.cycles(sweepCycles), Seed: s}.WithDefaults()
			sp := root.Child("experiments.NewPortableSweepPoint")
			pt, err := experiments.NewPortableSweepPoint(cfgs[designWidth{p.design.Kind, p.design.Width}],
				experiments.GenSpec{Workload: p.pattern.String(), Rate: p.opts.Rate, Seed: s},
				experiments.Options{Cycles: p.opts.Cycles, Seed: s}, nil)
			sp.End()
			if err != nil {
				return nil, err
			}
			if lap == 0 {
				first = append(first, sample{pt: pt, p: p})
			}
			run := pt.Run
			pt.Run = func(ctx context.Context, spec experiments.CheckpointSpec) (experiments.Result, error) {
				t0 := time.Now()
				r, err := run(ctx, spec)
				t1 := time.Now()
				execs[j] = t1.Sub(t0)
				sup.Record("experiments.SweepPoint.Run", t0, t1)
				return r, err
			}
			pts[j] = pt
		}
		sup = root.Child("experiments.Supervise")
		t0 := time.Now()
		outs, _ := experiments.Supervise(ctx, experiments.SuperviseConfig{Workers: e.nproc, Exec: pool}, pts)
		superviseTime += time.Since(t0)
		sup.End()
		for j, o := range outs {
			res.attempted++
			pointTime += execs[j]
			res.ops = append(res.ops, execs[j])
			err := o.Err
			if err == nil {
				err = checkResult(o.Result)
			}
			if err != nil {
				res.failed++
				res.fail("point %d: %v", lap*len(grid)+j, err)
				continue
			}
			if lap == 0 {
				first[j].exec, first[j].result = execs[j], o.Result
				blob, err := experiments.MarshalResult(o.Result)
				if err != nil {
					return nil, err
				}
				digest.Write(blob)
			}
		}
		laps.done(time.Since(lapStart))
	}
	root.End()
	_, res.elapsed, res.rssMB = laps.finish()
	res.digest = hex.EncodeToString(digest.Sum(nil))

	st := pool.Stats()
	res.layers["exec.spawned"] = float64(st.Spawned)
	res.layers["exec.dispatched"] = float64(st.JobsDispatched)
	res.layers["exec.crashed"] = float64(st.Crashed)
	if st.Crashed > 0 {
		res.fail("%d worker processes crashed", st.Crashed)
	}

	// Run a spread sample of the first lap again in this process, the
	// way a sweep without the pool would, and check the pool gave the
	// same bytes. Execute's time over the in-process time is the
	// executor's transit cost.
	var transit []float64
	pr := newProber(e.tr, m)
	for i := 0; i < sweepSample && i*2 < len(first); i++ {
		s := first[i*2]
		if s.exec == 0 {
			continue // the point failed; already counted
		}
		t0 := time.Now()
		r, err := s.pt.Run(ctx, experiments.CheckpointSpec{})
		inproc := time.Since(t0)
		if err != nil {
			res.fail("in-process rerun of %s: %v", s.pt.ID, err)
			continue
		}
		got, err1 := experiments.MarshalResult(r)
		want, err2 := experiments.MarshalResult(s.result)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			res.fail("point %s: the worker pool's result bytes differ from the in-process run's", s.pt.ID)
			continue
		}
		transit = append(transit, 1-float64(inproc)/float64(s.exec))
		if e.tr != nil && i%(sweepSample/sweepProbe) == 0 {
			if err := pr.check(s.p, s.result); err != nil {
				res.fail("probe: %v", err)
			}
		}
	}
	if e.tr == nil {
		return res, nil
	}
	pr.finish(res.layers)
	sort.Float64s(transit)
	res.layers["exec.transit_frac"] = median(transit)
	if superviseTime > 0 {
		res.layers["experiments.supervise_idle_frac"] = 1 - float64(pointTime)/float64(superviseTime*time.Duration(e.nproc))
	}
	res.layers["experiments.construct_share"] = spanShare(e.tr.Spans(), "experiments.NewPortableSweepPoint", "sweep-short")
	if len(transit) == 0 {
		res.fail("no sample point could be compared")
	}
	return res, nil
}
