// Command rfsim runs one network design point under one workload and
// prints latency, power, area and raw counters.
//
// Usage:
//
//	rfsim -design baseline|static|wire-static|adaptive [-width 16|8|4]
//	      [-rf 25|50|100] [-workload uniform|unidf|bidf|hotbidf|1hotspot|
//	      2hotspot|4hotspot|x264|bodytrack|fluidanimate|streamcluster|
//	      specjbb|transpose|bitcomplement|bitreverse|shuffle|coherence]
//	      [-trace file] [-multicast none|expand|vct|rf]
//	      [-cycles N] [-rate R] [-seed S] [-mclocality 20]
//	      [-hist] [-check] [-timeline file] [-window N] [-timeout D]
//
// With -trace, the workload is replayed from a file captured by
// cmd/tracegen instead of generated.
//
// Observability: -hist prints p50/p90/p99/max packet- and flit-latency
// histograms, -check attaches the invariant checker (flit conservation,
// credit sanity, forward progress; the process panics on violation with
// a dump of the stuck router), and -timeline exports a per-link
// occupancy timeline sampled every -window cycles as CSV (or JSON when
// the file name ends in .json).
//
// Fault injection: -fault-rate R enables transient flit corruption (CRC
// failure probability R per flit on every link; seeded by -fault-seed),
// -kill-link A-B@CYCLE fails a mesh link, -kill-band I@CYCLE fails RF
// band I (shortcut bands first, then the multicast band); both kill
// flags repeat. -replan re-selects shortcuts around failed endpoints
// once the network drains after a band loss. Any of these prints a
// fault/recovery summary (retransmission rate, availability, MTTR,
// post-fault latency delta).
//
// -timeout bounds the run's wall-clock time; a timed-out run prints
// partial results and exits with status 3. A run is deterministic, so
// re-running it from cycle 0 gives the same result. Bad flags exit
// with 2.
//
// Chaos soak: -soak N runs N randomized faulty simulations (flit
// corruption plus scheduled link and band kills) under the
// crash-isolating supervisor; each failure is automatically shrunk to a
// minimal still-failing repro written to -soak-dir as JSON.
// -shrink FILE replays such a repro and exits 0 only if it no longer
// fails.
//
// Performance: -cpuprofile/-memprofile write pprof profiles of the
// run, and -bench-cycles N replaces -cycles and prints a wall-clock
// ns/cycle summary (see README "Profiling").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Exit codes: 0 success, 1 runtime failure, 2 bad flags, 3 interrupted
// by -timeout.
const (
	exitOK          = 0
	exitRunError    = 1
	exitBadFlags    = 2
	exitInterrupted = 3
)

// listFlag collects repeatable string flags.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// simFlags is the parsed command line, separated from flag plumbing so
// validation is table-testable.
type simFlags struct {
	design     string
	width      int
	rf         int
	workload   string
	traceFile  string
	multicast  string
	mcLocality int
	mcRate     float64
	cycles     int64
	heatmap    bool
	rate       float64
	seed       int64
	hist       bool
	check      bool
	timeline   string
	window     int64
	faultRate  float64
	faultSeed  int64
	replan     bool
	killLinks  listFlag
	killBands  listFlag

	soak         int
	soakDir      string
	shrink       string
	shrinkBudget int

	timeout time.Duration

	cpuProfile  string
	memProfile  string
	benchCycles int64
}

// validate rejects flag combinations before any simulation state is
// built. Every violation is reported, not just the first.
func (f *simFlags) validate() error {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if _, err := experiments.ParseDesignKind(f.design); err != nil {
		errs = append(errs, err)
	}
	if _, err := noc.ParseMulticastMode(f.multicast); err != nil {
		errs = append(errs, err)
	}
	if !tech.LinkWidth(f.width).Valid() {
		fail("invalid -width %d (want 16, 8 or 4)", f.width)
	}
	if f.cycles <= 0 {
		fail("-cycles must be positive, got %d", f.cycles)
	}
	if f.rate < 0 {
		fail("-rate must be non-negative, got %g", f.rate)
	}
	if f.faultRate < 0 || f.faultRate > 1 {
		fail("-fault-rate must be in [0,1], got %g", f.faultRate)
	}
	if f.mcRate < 0 || f.mcRate > 1 {
		fail("-mcrate must be in [0,1], got %g", f.mcRate)
	}
	if f.mcLocality < 0 || f.mcLocality > 100 {
		fail("-mclocality must be in [0,100], got %d", f.mcLocality)
	}
	if f.window <= 0 {
		fail("-window must be positive, got %d", f.window)
	}
	if f.timeout < 0 {
		fail("-timeout must be non-negative, got %s", f.timeout)
	}
	for _, s := range f.killLinks {
		if _, err := fault.ParseLinkKill(s); err != nil {
			errs = append(errs, err)
		}
	}
	for _, s := range f.killBands {
		if _, err := fault.ParseBandKill(s); err != nil {
			errs = append(errs, err)
		}
	}
	if f.soak < 0 {
		fail("-soak must be non-negative, got %d", f.soak)
	}
	if f.shrinkBudget < 0 {
		fail("-shrink-budget must be non-negative, got %d", f.shrinkBudget)
	}
	if f.soak > 0 && f.shrink != "" {
		fail("-soak and -shrink are mutually exclusive")
	}
	if f.benchCycles < 0 {
		fail("-bench-cycles must be non-negative, got %d", f.benchCycles)
	}
	return errors.Join(errs...)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var f simFlags
	fs := flag.NewFlagSet("rfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.design, "design", "baseline", "design kind: baseline, static, wire-static, adaptive")
	fs.IntVar(&f.width, "width", 16, "mesh link width in bytes (16, 8, 4)")
	fs.IntVar(&f.rf, "rf", 50, "RF-enabled routers for adaptive designs (25, 50, 100)")
	fs.StringVar(&f.workload, "workload", "uniform", "workload name or 'coherence'")
	fs.StringVar(&f.traceFile, "trace", "", "replay a captured trace file instead of generating")
	fs.StringVar(&f.multicast, "multicast", "none", "multicast mode: none, expand, vct, rf")
	fs.IntVar(&f.mcLocality, "mclocality", 20, "multicast destination-set locality percent")
	fs.Float64Var(&f.mcRate, "mcrate", 0.05, "multicast injection probability per cycle")
	fs.Int64Var(&f.cycles, "cycles", 200000, "injection cycles")
	fs.BoolVar(&f.heatmap, "heatmap", false, "print a mesh link-load heatmap and the hottest links")
	fs.Float64Var(&f.rate, "rate", 0, "transaction rate per component per cycle (0 = default)")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.BoolVar(&f.hist, "hist", false, "print packet- and flit-latency histograms (p50/p90/p99/max)")
	fs.BoolVar(&f.check, "check", false, "attach the invariant checker (panics on violation)")
	fs.StringVar(&f.timeline, "timeline", "", "export a per-link occupancy timeline to this file (CSV, or JSON for *.json)")
	fs.Int64Var(&f.window, "window", 1000, "timeline sample window in cycles")
	fs.Float64Var(&f.faultRate, "fault-rate", 0, "per-flit corruption probability on every link (0 = fault-free)")
	fs.Int64Var(&f.faultSeed, "fault-seed", 1, "seed for the corruption draws")
	fs.BoolVar(&f.replan, "replan", false, "re-select shortcuts around failed endpoints after a band loss")
	fs.Var(&f.killLinks, "kill-link", "fail a mesh link: A-B@CYCLE (repeatable)")
	fs.Var(&f.killBands, "kill-band", "fail RF band I (shortcuts first, then multicast): I@CYCLE (repeatable)")
	fs.IntVar(&f.soak, "soak", 0, "chaos soak: run N randomized faulty simulations, shrinking each failure to a minimal repro")
	fs.StringVar(&f.soakDir, "soak-dir", "", "directory for soak crash dumps and shrunken repro JSONs (empty: no artifacts)")
	fs.StringVar(&f.shrink, "shrink", "", "replay a soak repro JSON; exits 0 only if it no longer fails")
	fs.IntVar(&f.shrinkBudget, "shrink-budget", 0, "max candidate runs the shrinker may spend per failure (0 = default 64)")
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock budget; on expiry the run prints partial results and exits 3 (0 = none)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
	fs.Int64Var(&f.benchCycles, "bench-cycles", 0, "override -cycles and print a wall-clock ns/cycle summary (0 = off)")
	if err := fs.Parse(args); err != nil {
		return exitBadFlags
	}
	if err := f.validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return exitBadFlags
	}
	if f.cpuProfile != "" {
		cf, err := os.Create(f.cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitRunError
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintln(stderr, err)
			cf.Close()
			return exitRunError
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
		}()
	}
	if f.memProfile != "" {
		defer func() {
			mf, err := os.Create(f.memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer mf.Close()
			runtime.GC() // settle the heap so the profile shows retained state
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}
	if f.shrink != "" {
		return runShrinkReplay(&f, stdout, stderr)
	}
	if f.soak > 0 {
		return runSoak(&f, stdout, stderr)
	}
	return runSim(&f, stdout, stderr)
}

// runSoak executes the chaos-soak harness: f.soak randomized runs under
// the supervisor, every failure shrunk to a minimal repro.
func runSoak(f *simFlags, stdout, stderr io.Writer) int {
	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	if f.soakDir != "" {
		if err := os.MkdirAll(f.soakDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return exitRunError
		}
	}
	outcomes, err := experiments.Soak(ctx, experiments.SoakConfig{
		Runs: f.soak, Seed: f.seed, Dir: f.soakDir, ShrinkBudget: f.shrinkBudget,
	})
	failed := 0
	for _, o := range outcomes {
		if o.Reason == "" {
			fmt.Fprintf(stdout, "%s: ok (%s %dx%d, seed %d)\n", o.ID, o.Spec.Pattern, o.Spec.MeshW, o.Spec.MeshH, o.Spec.Seed)
			continue
		}
		failed++
		fmt.Fprintf(stdout, "%s: FAIL: %s\n", o.ID, o.Reason)
		if o.Repro != "" {
			fmt.Fprintf(stdout, "%s: minimal repro: %s (replay with -shrink)\n", o.ID, o.Repro)
		}
	}
	fmt.Fprintf(stdout, "soak: %d/%d runs healthy\n", len(outcomes)-failed, len(outcomes))
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "soak interrupted: %v\n", ctx.Err())
		return exitInterrupted
	}
	if err != nil {
		return exitRunError
	}
	return exitOK
}

// runShrinkReplay re-runs a shrunken repro and reports whether the
// failure still reproduces.
func runShrinkReplay(f *simFlags, stdout, stderr io.Writer) int {
	rep, err := experiments.LoadSoakRepro(f.shrink)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitBadFlags
	}
	fmt.Fprintf(stdout, "repro: %s %dx%d seed %d, %d scheduled faults (recorded failure: %s)\n",
		rep.Spec.Pattern, rep.Spec.MeshW, rep.Spec.MeshH, rep.Spec.Seed, len(rep.Spec.Schedule), rep.Reason)
	if why := experiments.ReplaySoak(context.Background(), rep); why != "" {
		fmt.Fprintf(stdout, "still fails: %s\n", why)
		return exitRunError
	}
	fmt.Fprintln(stdout, "no longer fails")
	return exitOK
}

func runSim(f *simFlags, stdout, stderr io.Writer) int {
	var schedule fault.Schedule
	for _, s := range f.killLinks {
		e, _ := fault.ParseLinkKill(s) // validated above
		schedule = append(schedule, e)
	}
	for _, s := range f.killBands {
		e, _ := fault.ParseBandKill(s)
		schedule = append(schedule, e)
	}
	faulty := f.faultRate > 0 || len(schedule) > 0

	m := topology.New10x10()
	cycles := f.cycles
	if f.benchCycles > 0 {
		cycles = f.benchCycles
	}
	opts := experiments.Options{Cycles: cycles, Rate: f.rate, Seed: f.seed, Check: f.check}

	kind, _ := experiments.ParseDesignKind(f.design)
	mode, _ := noc.ParseMulticastMode(f.multicast)
	d := experiments.Design{Kind: kind, Width: tech.LinkWidth(f.width), RFRouters: f.rf, Multicast: mode}

	var profile traffic.Generator
	if d.Kind == experiments.Adaptive {
		p, err := f.generator(m, opts.WithDefaults().Rate)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitBadFlags
		}
		profile = p
	}
	cfg := experiments.Build(m, d, profile, 0)
	if f.faultRate > 0 {
		cfg.Fault = noc.FaultConfig{MeshBER: f.faultRate, RFBER: f.faultRate, Seed: f.faultSeed}
	}
	gen, err := f.generator(m, opts.WithDefaults().Rate)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitBadFlags
	}

	var observers []noc.Observer
	var rec *obs.LatencyRecorder
	if f.hist {
		rec = obs.NewLatencyRecorder()
		observers = append(observers, rec)
	}
	var inj *fault.Injector
	var frec *obs.FaultRecorder
	if faulty {
		inj = fault.NewInjector(schedule)
		inj.AutoReplan = f.replan
		frec = obs.NewFaultRecorder()
		observers = append(observers, inj, frec)
	}
	var tl *obs.LinkTimeline // the heatmap and the -timeline export read it
	if f.timeline != "" {
		tl = obs.NewLinkTimeline(f.window)
	} else if f.heatmap {
		tl = obs.NewLinkTimeline(math.MaxInt64) // one window for the whole run
	}
	if tl != nil {
		observers = append(observers, tl)
	}
	var probe *netProbe // the fault section reads the network
	if faulty {
		probe = &netProbe{}
		observers = append(observers, probe)
	}

	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	start := time.Now()
	r, err := experiments.RunContext(ctx, cfg, gen, opts, observers...)
	elapsed := time.Since(start)
	interrupted := r.Interrupted && errors.Is(err, context.DeadlineExceeded)
	if err != nil && !interrupted {
		fmt.Fprintln(stderr, err)
		return exitRunError
	}
	var net *noc.Network
	if probe != nil {
		if net = probe.n; net == nil { // the run stopped before its first cycle, in a new network's state
			net = noc.New(cfg)
		}
	}

	printReport(stdout, m, net, cfg, d, gen, r, rec, frec, inj)
	if f.benchCycles > 0 && r.Stats.Cycles > 0 {
		fmt.Fprintf(stdout, "\nbench: %d cycles (injection + drain) in %s, %.0f ns/cycle\n",
			r.Stats.Cycles, elapsed.Round(time.Millisecond), float64(elapsed.Nanoseconds())/float64(r.Stats.Cycles))
	}
	if f.heatmap {
		u := tl.Total(r.Stats.Cycles)
		fmt.Fprintln(stdout, "\nlink-load heatmap (bottom row is mesh row 0):")
		fmt.Fprintln(stdout, u.Heatmap(m))
		fmt.Fprintln(stdout, "hottest links:")
		for _, l := range u.HottestLinks(m, 8) {
			fmt.Fprintln(stdout, "  "+l)
		}
	}
	if f.timeline != "" {
		if err := writeTimeline(f.timeline, tl, r.Stats.Cycles); err != nil {
			fmt.Fprintf(stderr, "timeline: %v\n", err)
			return exitRunError
		}
		fmt.Fprintf(stdout, "\ntimeline: %s (%s)\n", f.timeline, tl)
	}
	if interrupted {
		fmt.Fprintf(stderr, "timeout after %s: partial results above\n", f.timeout)
		return exitInterrupted
	}
	return exitOK
}

func printReport(w io.Writer, m *topology.Mesh, net *noc.Network, cfg noc.Config, d experiments.Design, gen traffic.Generator, r experiments.Result, rec *obs.LatencyRecorder, frec *obs.FaultRecorder, inj *fault.Injector) {
	fmt.Fprintf(w, "design:   %s\n", d.Name())
	fmt.Fprintf(w, "workload: %s\n", gen.Name())
	fmt.Fprintf(w, "cycles:   %d (drained: %v)\n", r.Stats.Cycles, r.Drained)
	if r.Drained {
		fmt.Fprintf(w, "drain:    %d cycles\n", r.Drain.CyclesUsed)
	} else {
		fmt.Fprintf(w, "drain:    FAILED after %d cycles: %d packets stranded, oldest head flit %d cycles old\n",
			r.Drain.CyclesUsed, r.Drain.Stranded, r.Drain.OldestHeadAge)
	}
	if r.Interrupted {
		fmt.Fprintf(w, "status:   INTERRUPTED (partial measurement)\n")
	}
	fmt.Fprintf(w, "\navg latency:   %.2f per flit (%.2f per packet)\n",
		r.AvgLatency, r.Stats.AvgPacketLatency())
	fmt.Fprintf(w, "avg hops:      %.2f\n", r.Stats.AvgHops())
	fmt.Fprintf(w, "throughput:    %.3f flits/cycle\n", r.Stats.Throughput())
	fmt.Fprintf(w, "\npower: %.3f W total\n", r.PowerW)
	fmt.Fprintf(w, "  router dynamic %.3f  router leakage %.3f\n", r.Breakdown.RouterDynamic, r.Breakdown.RouterLeakage)
	fmt.Fprintf(w, "  link dynamic   %.3f  link leakage   %.3f\n", r.Breakdown.LinkDynamic, r.Breakdown.LinkLeakage)
	fmt.Fprintf(w, "  RF dynamic     %.3f  RF static      %.3f\n", r.Breakdown.RFDynamic, r.Breakdown.RFStatic)
	if r.Breakdown.VCTTable > 0 {
		fmt.Fprintf(w, "  VCT tables     %.3f\n", r.Breakdown.VCTTable)
	}
	fmt.Fprintf(w, "\narea: %.2f mm^2 (router %.2f, link %.2f, RF-I %.2f",
		r.AreaMM2, r.Area.Router, r.Area.Link, r.Area.RFI)
	if r.Area.VCT > 0 {
		fmt.Fprintf(w, ", VCT %.2f", r.Area.VCT)
	}
	fmt.Fprintln(w, ")")
	s := r.Stats
	fmt.Fprintf(w, "\npackets: %d ejected  flits: %d  mesh flit-hops: %d  RF bits: %d\n",
		s.PacketsEjected, s.FlitsEjected, s.MeshFlitHops, s.RFShortcutBits)
	if s.MulticastMessages > 0 {
		fmt.Fprintf(w, "multicasts: %d messages, %d deliveries, avg %.2f cycles\n",
			s.MulticastMessages, s.MulticastDeliveries,
			float64(s.MulticastLatency)/float64(max64(s.MulticastDeliveries, 1)))
	}
	if s.EscapeSwitches > 0 {
		fmt.Fprintf(w, "escape-VC reroutes: %d\n", s.EscapeSwitches)
	}
	if frec != nil {
		fmt.Fprintln(w, "\nfault/recovery:")
		fmt.Fprintln(w, frec.Render(s))
		if n := len(net.DeadMeshLinks()); n > 0 {
			fmt.Fprintf(w, "dead mesh links: %d\n", n)
		}
		if fs := net.FailedShortcuts(); len(fs) > 0 {
			var parts []string
			for _, e := range fs {
				parts = append(parts, e.String())
			}
			fmt.Fprintf(w, "failed shortcuts: %s\n", strings.Join(parts, " "))
		}
		if inj.Replans() > 0 {
			fmt.Fprintf(w, "auto-replans: %d\n", inj.Replans())
		}
		for _, sk := range inj.Skipped() {
			fmt.Fprintf(w, "skipped %s: %v\n", sk.Event, sk.Err)
		}
	}
	if len(cfg.Shortcuts) > 0 {
		var parts []string
		for _, e := range cfg.Shortcuts {
			parts = append(parts, fmt.Sprintf("(%d,%d)->(%d,%d)",
				m.Coord(e.From).X, m.Coord(e.From).Y, m.Coord(e.To).X, m.Coord(e.To).Y))
		}
		fmt.Fprintf(w, "shortcuts: %s\n", strings.Join(parts, " "))
	}
	if rec != nil {
		fmt.Fprintln(w, "\nlatency distributions (cycles):")
		fmt.Fprintln(w, rec.Render())
	}
}

// netProbe keeps the network it observes.
type netProbe struct {
	noc.BaseObserver
	n *noc.Network
}

func (p *netProbe) CycleEnd(n *noc.Network) { p.n = n }

func writeTimeline(path string, tl *obs.LinkTimeline, now int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = tl.WriteJSON(f, now)
	} else {
		err = tl.WriteCSV(f, now)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// generator builds a fresh instance of the run's workload. A named
// workload resolves through experiments.GenSpec, which also applies the
// -multicast augmentation; a replayed -trace and the coherence model
// run as they are.
func (f *simFlags) generator(m *topology.Mesh, rate float64) (traffic.Generator, error) {
	if f.traceFile != "" {
		file, err := os.Open(f.traceFile)
		if err != nil {
			return nil, fmt.Errorf("open trace: %v", err)
		}
		defer file.Close()
		rp, err := traffic.ReadTrace(file)
		if err != nil {
			return nil, fmt.Errorf("read trace: %v", err)
		}
		return rp, nil
	}
	if f.workload == "coherence" {
		return coherence.New(m, coherence.Workload{}, f.seed), nil
	}
	return experiments.GenSpec{
		Workload: f.workload, Rate: rate, Seed: f.seed,
		Multicast: f.multicast != "none", MulticastRate: f.mcRate, MulticastLocality: f.mcLocality,
	}.Build(m)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
