package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// figuresCycles is the injection window of every figures simulation:
// long enough that the claims settle near the paper's, short enough
// that the 154 simulations fit one run. Most of a Summary's time is
// shortcut selection and per-point build, which do not scale with it.
const figuresCycles = 5000

const (
	// The figures job's only set-up is building the mesh, too quick to
	// time once: a helper process builds it meshReps times and reports
	// the median. One process's timings depend on where its memory
	// landed, and a microsecond timing on the moment it is taken, so
	// set-up runs meshProcs helpers meshGap apart and reports the median
	// over them.
	meshReps  = 200
	meshProcs = 15
	meshGap   = 150 * time.Millisecond
	// meshEnv marks such a helper process.
	meshEnv = "RFBENCH_MESH"
)

// runFigures is the researcher's job: experiments.Summary over the 10x10
// mesh, which runs Figures 7, 8 and 9 (154 simulations fanned out over
// GOMAXPROCS goroutines) and pairs 18 measured ratios with the paper's.
// A Summary fills a process-global memo of adaptive shortcut sets, so a
// run does exactly one; a second would time a warm memo no user of the
// CLI gets.
func runFigures(_ context.Context, e *env) (*result, error) {
	res := newResult()
	var err error
	if res.setup, err = timeMeshBuilds(); err != nil {
		return nil, err
	}
	m := topology.New10x10()
	opts := experiments.Options{Cycles: e.cycles(figuresCycles), Seed: derive(e.seed, 0)}
	if e.scale > 1 {
		opts.ProfileCycles = e.cycles(opts.WithDefaults().ProfileCycles)
	}

	var claims []experiments.Claim
	res.attempted = 1
	if e.tr == nil {
		loop := newClosedLoop(e.budget)
		t0 := time.Now()
		claims = experiments.Summary(m, opts)
		loop.done(time.Since(t0))
		res.ops, res.elapsed, res.rssMB = loop.finish()
	} else {
		// The traced job runs the three figures one by one under their
		// own spans, then takes the claims from a Summary, which finds
		// the adaptive memo warm and mostly re-simulates.
		root := e.tr.Root("figures")
		sp := root.Child("experiments.Fig7")
		experiments.Fig7(m, opts)
		sp.End()
		sp = root.Child("experiments.Fig8")
		experiments.Fig8(m, opts)
		sp.End()
		sp = root.Child("experiments.Fig9")
		experiments.Fig9(m, opts)
		sp.End()
		root.End()
		claims = experiments.Summary(m, opts)
		spans := e.tr.Spans()
		for i, fig := range []string{"fig7", "fig8", "fig9"} {
			res.layers["experiments."+fig+"_share"] = spanShare(spans, fmt.Sprintf("experiments.Fig%d", 7+i), "figures")
		}
	}

	mean, worst, err := paperError(claims)
	if err != nil {
		res.failed = 1
		res.fail("%v", err)
	}
	res.facts["paper_err_mean_pp"] = mean
	res.facts["paper_err_max_pp"] = worst
	if e.tr == nil {
		return res, nil
	}
	res.layers["experiments.paper_err_mean_pp"] = mean
	res.layers["experiments.paper_err_max_pp"] = worst

	// Probe one point of each kind the figures simulate, against the
	// entry point the figures use for them.
	pr := newProber(e.tr, m)
	for _, p := range []point{
		newPoint(experiments.Static, tech.Width16B, traffic.Uniform, opts),
		newPoint(experiments.Adaptive, tech.Width16B, traffic.HotBiDF, opts),
		newPoint(experiments.Baseline, tech.Width4B, traffic.Hotspot2, opts),
	} {
		ref := experiments.RunDesign(m, p.design, p.pattern, opts)
		if err := checkResult(ref); err != nil {
			res.fail("%v", err)
			continue
		}
		if err := pr.check(p, ref); err != nil {
			res.fail("probe: %v", err)
		}
	}
	pr.finish(res.layers)
	return res, nil
}

// paperError is the mean and largest distance, in percentage points,
// between the Summary's measured ratios and the paper's. It rejects a
// Summary without all 18 claims or with a ratio that is not a positive
// finite number.
func paperError(claims []experiments.Claim) (mean, worst float64, err error) {
	if len(claims) != 18 {
		return 0, 0, fmt.Errorf("Summary returned %d claims, want 18", len(claims))
	}
	for _, c := range claims {
		if math.IsNaN(c.Measured) || math.IsInf(c.Measured, 0) || c.Measured <= 0 {
			return 0, 0, fmt.Errorf("claim %q measured %v", c.Name, c.Measured)
		}
		d := math.Abs(c.Delta())
		mean += d
		worst = max(worst, d)
	}
	return mean / float64(len(claims)), worst, nil
}

// timeMeshBuilds runs meshProcs helper processes, one after another,
// and returns the median mesh build time each measured.
func timeMeshBuilds() ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, meshProcs)
	for i := 0; i < meshProcs; i++ {
		if i > 0 {
			time.Sleep(meshGap)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), meshEnv+"=1")
		blob, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("mesh timing helper: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(blob)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("mesh timing helper printed %q", blob)
		}
		out = append(out, time.Duration(ns))
	}
	return out, nil
}

// meshMain is the helper: it builds the mesh meshReps times and prints
// the median build time in nanoseconds.
func meshMain(stdout io.Writer) int {
	ds := make([]time.Duration, meshReps)
	for i := range ds {
		t0 := time.Now()
		_ = topology.New10x10()
		ds[i] = time.Since(t0)
	}
	fmt.Fprintln(stdout, int64(median(sortedMS(ds))*float64(time.Millisecond)))
	return 0
}
