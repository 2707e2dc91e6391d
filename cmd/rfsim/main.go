// Command rfsim runs one network design point under one workload and
// prints latency, power, area and raw counters.
//
// Usage:
//
//	rfsim -design baseline|static|wire-static|adaptive [-width 16|8|4]
//	      [-rf 25|50|100] [-workload uniform|unidf|bidf|hotbidf|1hotspot|
//	      2hotspot|4hotspot|x264|bodytrack|fluidanimate|streamcluster|
//	      specjbb|coherence] [-trace file] [-multicast none|expand|vct|rf]
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
// Self-healing: -integrity adds per-packet sequence numbers and an
// end-to-end checksum (receiver-side dedup, misdelivery detection,
// NACK-style source retransmission), -watchdog arms staged stall
// recovery. The adversarial fault modes -misroute-rate,
// -misdeliver-rate, -duplicate-rate, -credit-leak-rate and
// -stuck-vc-rate inject seeded faults (misdeliver/duplicate need
// -integrity), and -leak-credit A-B@CYCLE / -stick-vc R-P@CYCLE
// schedule deterministic ones. Any of these prints an
// integrity/recovery summary.
//
// Chaos soak: -soak N runs N randomized fault-heavy simulations under
// the crash-isolating supervisor; each failure is automatically shrunk
// to a minimal still-failing repro written to -soak-dir as JSON.
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

	integrity      bool
	watchdog       bool
	misrouteRate   float64
	misdeliverRate float64
	duplicateRate  float64
	creditLeakRate float64
	stuckVCRate    float64
	leakCredits    listFlag
	stickVCs       listFlag

	soak         int
	soakDir      string
	shrink       string
	shrinkBudget int

	timeout time.Duration

	cpuProfile  string
	memProfile  string
	benchCycles int64
}

// adversarial reports whether any self-healing machinery is in play.
func (f *simFlags) adversarial() bool {
	return f.integrity || f.watchdog ||
		f.misrouteRate > 0 || f.misdeliverRate > 0 || f.duplicateRate > 0 ||
		f.creditLeakRate > 0 || f.stuckVCRate > 0 ||
		len(f.leakCredits) > 0 || len(f.stickVCs) > 0
}

func parseDesign(name string) (experiments.DesignKind, error) {
	switch name {
	case "baseline":
		return experiments.Baseline, nil
	case "static":
		return experiments.Static, nil
	case "wire-static":
		return experiments.WireStatic, nil
	case "adaptive":
		return experiments.Adaptive, nil
	}
	return 0, fmt.Errorf("unknown design %q (want baseline, static, wire-static or adaptive)", name)
}

func parseMulticast(name string) (noc.MulticastMode, error) {
	switch name {
	case "none", "expand":
		return noc.MulticastExpand, nil
	case "vct":
		return noc.MulticastVCT, nil
	case "rf":
		return noc.MulticastRF, nil
	}
	return 0, fmt.Errorf("unknown multicast mode %q (want none, expand, vct or rf)", name)
}

// validate rejects flag combinations before any simulation state is
// built. Every violation is reported, not just the first.
func (f *simFlags) validate() error {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if _, err := parseDesign(f.design); err != nil {
		errs = append(errs, err)
	}
	if _, err := parseMulticast(f.multicast); err != nil {
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
	for _, s := range f.leakCredits {
		if _, err := fault.ParseLeakCredit(s); err != nil {
			errs = append(errs, err)
		}
	}
	for _, s := range f.stickVCs {
		if _, err := fault.ParseStickVC(s); err != nil {
			errs = append(errs, err)
		}
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"-misroute-rate", f.misrouteRate},
		{"-misdeliver-rate", f.misdeliverRate},
		{"-duplicate-rate", f.duplicateRate},
		{"-credit-leak-rate", f.creditLeakRate},
		{"-stuck-vc-rate", f.stuckVCRate},
	} {
		if r.v < 0 || r.v > 1 {
			fail("%s must be in [0,1], got %g", r.name, r.v)
		}
	}
	if !f.integrity && (f.misdeliverRate > 0 || f.duplicateRate > 0) {
		fail("-misdeliver-rate and -duplicate-rate need -integrity (without sequence numbers these faults are undetectable)")
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
	fs.BoolVar(&f.integrity, "integrity", false, "end-to-end packet integrity: sequence numbers, checksum, dedup, source retransmission")
	fs.BoolVar(&f.watchdog, "watchdog", false, "arm the staged stall-recovery watchdog")
	fs.Float64Var(&f.misrouteRate, "misroute-rate", 0, "probability a packet is diverted to a wrong output port at route computation")
	fs.Float64Var(&f.misdeliverRate, "misdeliver-rate", 0, "probability an RF-band arrival ejects at the wrong router (needs -integrity)")
	fs.Float64Var(&f.duplicateRate, "duplicate-rate", 0, "probability an RF band re-trigger duplicates a packet (needs -integrity)")
	fs.Float64Var(&f.creditLeakRate, "credit-leak-rate", 0, "probability per credit return that the credit is destroyed")
	fs.Float64Var(&f.stuckVCRate, "stuck-vc-rate", 0, "probability per cycle that a busy VC wedges")
	fs.Var(&f.leakCredits, "leak-credit", "destroy one credit on mesh link A->B: A-B@CYCLE (repeatable)")
	fs.Var(&f.stickVCs, "stick-vc", "wedge router R's input port P (0=N 1=E 2=S 3=W): R-P@CYCLE (repeatable)")
	fs.IntVar(&f.soak, "soak", 0, "chaos soak: run N randomized fault-heavy simulations, shrinking each failure to a minimal repro")
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
	for _, s := range f.leakCredits {
		e, _ := fault.ParseLeakCredit(s)
		schedule = append(schedule, e)
	}
	for _, s := range f.stickVCs {
		e, _ := fault.ParseStickVC(s)
		schedule = append(schedule, e)
	}
	faulty := f.faultRate > 0 || len(schedule) > 0 || f.adversarial()

	m := topology.New10x10()
	cycles := f.cycles
	if f.benchCycles > 0 {
		cycles = f.benchCycles
	}
	opts := experiments.Options{Cycles: cycles, Rate: f.rate, Seed: f.seed, Check: f.check}

	kind, _ := parseDesign(f.design)
	mode, _ := parseMulticast(f.multicast)
	d := experiments.Design{Kind: kind, Width: tech.LinkWidth(f.width), RFRouters: f.rf, Multicast: mode}
	if mode == noc.MulticastRF && kind == experiments.Adaptive {
		d.ShortcutBudget = tech.ShortcutBudget - 1 // one band for multicast
	}

	mkGen := func(seed int64) (traffic.Generator, error) {
		g, err := baseGenerator(m, f.workload, f.traceFile, opts.WithDefaults().Rate, seed)
		if err != nil {
			return nil, err
		}
		if f.multicast != "none" && f.workload != "coherence" && f.traceFile == "" {
			g = traffic.NewMulticastAugment(m, g, f.mcRate, f.mcLocality, seed)
		}
		return g, nil
	}

	var profile traffic.Generator
	if d.Kind == experiments.Adaptive {
		p, err := mkGen(f.seed)
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
	if f.adversarial() {
		cfg.Fault.Seed = f.faultSeed
		cfg.Fault.MisrouteRate = f.misrouteRate
		cfg.Fault.MisdeliverRate = f.misdeliverRate
		cfg.Fault.DuplicateRate = f.duplicateRate
		cfg.Fault.CreditLeakRate = f.creditLeakRate
		cfg.Fault.StuckVCRate = f.stuckVCRate
		cfg.Integrity = f.integrity
		if f.watchdog {
			cfg.Watchdog = noc.WatchdogConfig{Enabled: true}
		}
	}
	gen, err := mkGen(f.seed)
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
	var irec *obs.IntegrityRecorder
	if faulty {
		inj = fault.NewInjector(schedule)
		inj.AutoReplan = f.replan
		frec = obs.NewFaultRecorder()
		observers = append(observers, inj, frec)
	}
	if f.adversarial() {
		irec = obs.NewIntegrityRecorder()
		observers = append(observers, irec)
	}
	var tl *obs.LinkTimeline
	if f.timeline != "" {
		tl = obs.NewLinkTimeline(f.window)
		observers = append(observers, tl)
	}
	var net *noc.Network
	spec := experiments.CheckpointSpec{OnNetwork: func(n *noc.Network) { net = n }}

	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	start := time.Now()
	r, err := experiments.RunContext(ctx, cfg, gen, opts, spec, observers...)
	elapsed := time.Since(start)
	interrupted := r.Interrupted && errors.Is(err, context.DeadlineExceeded)
	if err != nil && !interrupted {
		fmt.Fprintln(stderr, err)
		return exitRunError
	}

	printReport(stdout, m, net, cfg, d, gen, r, rec, frec, inj, irec)
	if f.benchCycles > 0 && r.Stats.Cycles > 0 {
		fmt.Fprintf(stdout, "\nbench: %d cycles (injection + drain) in %s, %.0f ns/cycle\n",
			r.Stats.Cycles, elapsed.Round(time.Millisecond), float64(elapsed.Nanoseconds())/float64(r.Stats.Cycles))
	}
	if f.heatmap {
		fmt.Fprintln(stdout, "\nlink-load heatmap (bottom row is mesh row 0):")
		fmt.Fprintln(stdout, net.Heatmap())
		fmt.Fprintln(stdout, "hottest links:")
		for _, l := range net.HottestLinks(8) {
			fmt.Fprintln(stdout, "  "+l)
		}
	}
	if tl != nil {
		if err := writeTimeline(f.timeline, tl, net.Now()); err != nil {
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

func printReport(w io.Writer, m *topology.Mesh, net *noc.Network, cfg noc.Config, d experiments.Design, gen traffic.Generator, r experiments.Result, rec *obs.LatencyRecorder, frec *obs.FaultRecorder, inj *fault.Injector, irec *obs.IntegrityRecorder) {
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
		fmt.Fprintln(w, frec.Render())
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
	if irec != nil {
		fmt.Fprintln(w, "\nintegrity/recovery:")
		fmt.Fprintln(w, irec.Render())
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

func baseGenerator(m *topology.Mesh, workload, traceFile string, rate float64, seed int64) (traffic.Generator, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, fmt.Errorf("open trace: %v", err)
		}
		defer f.Close()
		rp, err := traffic.ReadTrace(f)
		if err != nil {
			return nil, fmt.Errorf("read trace: %v", err)
		}
		return rp, nil
	}
	if workload == "coherence" {
		return coherence.New(m, coherence.Workload{}, seed), nil
	}
	for _, p := range traffic.Patterns() {
		if strings.EqualFold(p.String(), workload) {
			return traffic.NewProbabilistic(m, p, rate, seed), nil
		}
	}
	for _, a := range traffic.Apps() {
		if strings.EqualFold(a.String(), workload) {
			return traffic.NewAppTrace(m, a, rate, seed), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
