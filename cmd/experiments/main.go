// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -artifact fig1|fig7|fig8|table2|fig9|fig10a|fig10b|app|summary|
//	            loadcurve|scaling|ablations|all [-cycles N] [-rate R]
//	            [-seed S] [-format text|csv]
//	experiments -supervise [-crash-dir DIR] [-retries N] [-workers N]
//	            [-cycles N] [-rate R] [-seed S]
//
// Each artifact prints the same rows/series the paper reports, normalized
// the way the paper normalizes them. The default cycle budget favors
// iteration speed; use -cycles 1000000 to match the paper's trace length.
//
// -supervise runs the design x workload sweep under the fault-isolating
// supervisor instead: points execute on a worker pool, a panicking or
// failing point is retried -retries times from cycle 0, and a point that
// keeps failing is recorded — with a crash dump in -crash-dir when a
// panic caused it — while the rest of the sweep completes.
// Partial results are always printed; the exit code is 1 if any point
// ultimately failed and 0 otherwise. Bad flags exit with 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

type expFlags struct {
	artifact string
	cycles   int64
	rate     float64
	seed     int64
	format   string
	hist     bool
	invCheck bool

	supervise bool
	crashDir  string
	retries   int
	workers   int
}

var artifacts = []string{"fig1", "table2", "fig7", "fig8", "fig9", "fig10a", "fig10b", "app", "summary", "loadcurve", "scaling", "ablations"}

func (f *expFlags) validate() error {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if f.cycles <= 0 {
		fail("-cycles must be positive, got %d", f.cycles)
	}
	if f.rate < 0 {
		fail("-rate must be non-negative, got %g", f.rate)
	}
	if f.format != "text" && f.format != "csv" {
		fail("unknown format %q (want text or csv)", f.format)
	}
	if f.artifact != "all" && !f.supervise {
		known := false
		for _, a := range artifacts {
			known = known || a == f.artifact
		}
		if !known {
			fail("unknown artifact %q", f.artifact)
		}
	}
	if f.retries < 0 {
		fail("-retries must be non-negative, got %d", f.retries)
	}
	if f.workers < 0 {
		fail("-workers must be non-negative, got %d", f.workers)
	}
	if f.crashDir != "" && !f.supervise {
		fail("-crash-dir only makes sense with -supervise")
	}
	return errors.Join(errs...)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var f expFlags
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.artifact, "artifact", "all", "which artifact to regenerate (fig1, fig7, fig8, table2, fig9, fig10a, fig10b, app, summary, loadcurve, scaling, ablations, all)")
	fs.Int64Var(&f.cycles, "cycles", 60000, "injection cycles per run (paper: 1M)")
	fs.Float64Var(&f.rate, "rate", 0, "transaction injection rate per component per cycle (default per traffic.DefaultRate)")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.StringVar(&f.format, "format", "text", "output format: text or csv (loadcurve, scaling and ablations print text either way)")
	fs.BoolVar(&f.hist, "hist", false, "collect latency histograms (adds p50/p99/max tail columns to -artifact app)")
	fs.BoolVar(&f.invCheck, "check", false, "attach an invariant checker to every simulation (panics on violation)")
	fs.BoolVar(&f.supervise, "supervise", false, "run the design x workload sweep under the fault-isolating supervisor")
	fs.StringVar(&f.crashDir, "crash-dir", "", "directory for crash dumps of panicking points (supervised mode)")
	fs.IntVar(&f.retries, "retries", 1, "retry budget per failed sweep point (supervised mode)")
	fs.IntVar(&f.workers, "workers", 0, "supervisor worker pool size (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := f.validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	m := topology.New10x10()
	opts := experiments.Options{
		Cycles: f.cycles, Rate: f.rate, Seed: f.seed,
		Histograms: f.hist, Check: f.invCheck,
	}
	if f.supervise {
		return runSupervised(&f, m, opts, stdout, stderr)
	}

	csvOut := f.format == "csv"
	code := 0
	check := func(err error) {
		if err != nil {
			fmt.Fprintf(stderr, "csv: %v\n", err)
			code = 1
		}
	}
	run := func(name string) {
		switch name {
		case "fig1":
			r := experiments.Fig1(m, opts)
			if csvOut {
				check(experiments.WriteFig1CSV(stdout, r))
				return
			}
			fmt.Fprintln(stdout, "== Figure 1: traffic locality by manhattan distance ==")
			fmt.Fprintln(stdout, r.Render())
		case "fig7":
			r := experiments.Fig7(m, opts)
			if csvOut {
				check(experiments.WriteFig7CSV(stdout, r))
				return
			}
			fmt.Fprintln(stdout, "== Figure 7: number of RF-enabled routers (16B mesh, normalized to baseline) ==")
			fmt.Fprintln(stdout, r.Render())
		case "fig8":
			r := experiments.Fig8(m, opts)
			if csvOut {
				check(experiments.WriteFig7CSV(stdout, r))
				return
			}
			fmt.Fprintln(stdout, "== Figure 8: mesh bandwidth reduction (normalized to 16B baseline) ==")
			fmt.Fprintln(stdout, r.Render())
		case "table2":
			rows := experiments.Table2(m)
			if csvOut {
				check(experiments.WriteTable2CSV(stdout, rows))
				return
			}
			fmt.Fprintln(stdout, "== Table 2: area of network designs (mm^2) ==")
			fmt.Fprintln(stdout, experiments.RenderTable2(rows))
		case "fig9":
			r := experiments.Fig9(m, opts)
			if csvOut {
				check(experiments.WriteFig9CSV(stdout, r))
				return
			}
			fmt.Fprintln(stdout, "== Figure 9: multicast power and performance (normalized to 16B baseline with unicast expansion) ==")
			fmt.Fprintln(stdout, r.Render())
		case "fig10a":
			lines := experiments.Fig10a(m, opts)
			if csvOut {
				check(experiments.WriteFig10CSV(stdout, lines))
				return
			}
			fmt.Fprintln(stdout, "== Figure 10a: unicast architectures, power vs performance ==")
			fmt.Fprintln(stdout, experiments.RenderFig10(lines))
		case "fig10b":
			lines := experiments.Fig10b(m, opts)
			if csvOut {
				check(experiments.WriteFig10CSV(stdout, lines))
				return
			}
			fmt.Fprintln(stdout, "== Figure 10b: multicast architectures, power vs performance ==")
			fmt.Fprintln(stdout, experiments.RenderFig10(lines))
		case "app":
			rs := experiments.AppStudy(m, opts)
			if csvOut {
				check(experiments.WriteAppStudyCSV(stdout, rs))
				return
			}
			fmt.Fprintln(stdout, "== Application traces: adaptive 4B vs 16B baseline ==")
			fmt.Fprintln(stdout, experiments.RenderAppStudy(rs))
		case "summary":
			claims := experiments.Summary(m, opts)
			if csvOut {
				check(experiments.WriteSummaryCSV(stdout, claims))
				return
			}
			fmt.Fprintln(stdout, "== Headline claims: paper vs measured ==")
			fmt.Fprintln(stdout, experiments.RenderSummary(claims))
		case "scaling":
			rows := experiments.ScalingStudy([]int{8, 10, 12, 16}, opts)
			fmt.Fprintln(stdout, "== Scaling study: 16B baseline vs adaptive 4B overlay across mesh sizes ==")
			fmt.Fprintln(stdout, experiments.RenderScaling(rows))
		case "loadcurve":
			curves := experiments.LoadLatency(m,
				experiments.LoadCurveDesigns(tech.Width4B), traffic.Uniform, nil, opts)
			fmt.Fprintln(stdout, "== Load-latency curves (uniform traffic, 4B mesh) ==")
			fmt.Fprintln(stdout, experiments.RenderLoadCurves(curves))
		case "ablations":
			runAblations(stdout, m, opts)
		}
	}

	if f.artifact == "all" {
		for _, a := range artifacts {
			run(a)
		}
		return code
	}
	run(f.artifact)
	return code
}

// sweepGrid is the supervised sweep: the paper's headline design points
// under its probabilistic workloads, one point per (design, pattern).
func sweepGrid(m *topology.Mesh, opts experiments.Options) []experiments.SweepPoint {
	designs := []experiments.Design{
		{Kind: experiments.Baseline, Width: tech.Width16B},
		{Kind: experiments.Static, Width: tech.Width16B},
		{Kind: experiments.Static, Width: tech.Width4B},
		{Kind: experiments.Adaptive, Width: tech.Width4B, RFRouters: 50},
	}
	pats := []traffic.Pattern{traffic.Uniform, traffic.Hotspot2, traffic.BiDF}
	def := opts.WithDefaults()
	var pts []experiments.SweepPoint
	for _, d := range designs {
		for _, pat := range pats {
			pt := experiments.Point{Design: d, Gen: experiments.GenSpec{Workload: pat.String(), Rate: def.Rate, Seed: def.Seed}}
			cfg, err := experiments.BuildSpec(m, pt, def.ProfileCycles)
			if err != nil {
				panic(err) // the patterns are registered workloads
			}
			meta := map[string]string{
				"design":   d.Name(),
				"workload": pat.String(),
				"seed":     fmt.Sprint(def.Seed),
			}
			sp, err := experiments.NewPortableSweepPoint(cfg, pt.Gen, opts, meta)
			if err != nil {
				panic(err)
			}
			sp.ID = fmt.Sprintf("%s-%s", d.Name(), pat)
			pts = append(pts, sp)
		}
	}
	return pts
}

func runSupervised(f *expFlags, m *topology.Mesh, opts experiments.Options, stdout, stderr io.Writer) int {
	if f.crashDir != "" {
		if err := os.MkdirAll(f.crashDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "crash dir: %v\n", err)
			return 1
		}
	}
	pts := sweepGrid(m, opts)
	outs, err := experiments.Supervise(context.Background(), experiments.SuperviseConfig{
		Workers: f.workers, Retries: f.retries,
		Dir: f.crashDir,
	}, pts)

	fmt.Fprintln(stdout, "== Supervised sweep: design x workload ==")
	fmt.Fprintf(stdout, "%-28s %10s %8s %8s %10s %s\n", "point", "lat/flit", "power W", "attempts", "drain", "status")
	for _, o := range outs {
		status := "ok"
		if o.Err != nil {
			status = "FAILED: " + o.Err.Error()
			if o.CrashDump != "" {
				status += " (crash dump: " + o.CrashDump + ")"
			}
			fmt.Fprintf(stdout, "%-28s %10s %8s %8d %10s %s\n", o.ID, "-", "-", o.Attempts, "-", status)
			continue
		}
		drain := fmt.Sprintf("%d", o.Result.Drain.CyclesUsed)
		if !o.Result.Drained {
			drain = fmt.Sprintf("STUCK:%d", o.Result.Drain.Stranded)
		}
		fmt.Fprintf(stdout, "%-28s %10.2f %8.3f %8d %10s %s\n",
			o.ID, o.Result.AvgLatency, o.Result.PowerW, o.Attempts, drain, status)
	}
	if err != nil {
		fmt.Fprintf(stderr, "supervised sweep: %v\n", err)
		return 1
	}
	return 0
}

func runAblations(w io.Writer, m *topology.Mesh, opts experiments.Options) {
	fmt.Fprintln(w, "== Ablation: shortcut-selection heuristics (total pair cost; lower is better) ==")
	perm, maxc := experiments.AblationHeuristics(m, tech.ShortcutBudget)
	base := m.Graph().TotalPairCost()
	fmt.Fprintf(w, "mesh baseline:        %d\n", base)
	fmt.Fprintf(w, "permutation-graph:    %d (%.1f%% reduction)\n", perm, 100*(1-float64(perm)/float64(base)))
	fmt.Fprintf(w, "max-cost:             %d (%.1f%% reduction)\n\n", maxc, 100*(1-float64(maxc)/float64(base)))

	fmt.Fprintln(w, "== Ablation: region-based vs pair-based adaptive selection (1Hotspot, 4B mesh, avg latency) ==")
	region, pair := experiments.AblationRegion(m, opts)
	fmt.Fprintf(w, "region-based: %.2f cycles\npair-based:   %.2f cycles\n\n", region, pair)

	fmt.Fprintln(w, "== Ablation: escape-VC timeout (2Hotspot, 4B mesh + static shortcuts, avg latency) ==")
	times := []int64{4, 16, 64, 256}
	res := experiments.AblationEscapeVC(m, times, opts)
	for _, to := range times {
		fmt.Fprintf(w, "timeout %4d: %.2f cycles\n", to, res[to])
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Ablation: VCs x buffer depth (2Hotspot, 4B mesh + static shortcuts, latency/flit) ==")
	vcs, depths := []int{1, 2, 4, 8}, []int{2, 4, 8}
	resv := experiments.AblationVCConfig(m, vcs, depths, opts)
	for _, v := range vcs {
		for _, dep := range depths {
			fmt.Fprintf(w, "vcs=%d depth=%d: %.2f\n", v, dep, resv[[2]int{v, dep}])
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Routing function: XY vs minimal-adaptive on the permutation suite (4B mesh) ==")
	fmt.Fprintln(w, experiments.RenderRoutingStudy(experiments.RoutingStudy(m, opts)))

	fmt.Fprintln(w, "== Ablation: shortcut width under the fixed 256B RF-I budget (4B mesh, latency vs 4B baseline) ==")
	widths := []int{4, 8, 16, 32}
	resw := experiments.AblationShortcutWidth(m, widths, opts)
	var ws []int
	for w2 := range resw {
		ws = append(ws, w2)
	}
	sort.Ints(ws)
	for _, w2 := range ws {
		fmt.Fprintf(w, "%2dB shortcuts x%2d: %.3f\n", w2, tech.RFIAggregateBytes/w2, resw[w2])
	}
}
