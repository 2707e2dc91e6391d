package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Options controls simulation length and workload intensity.
type Options struct {
	// Cycles is the measured injection window (the paper runs its
	// probabilistic traces 1M network cycles; the default here is 60k,
	// which reproduces the same steady-state ratios in a fraction of the
	// time — raise it with cmd/experiments -cycles for full runs).
	Cycles int64

	// DrainCycles bounds post-injection draining.
	DrainCycles int64

	// Rate is the transaction injection rate per component per cycle.
	Rate float64

	// MulticastRate is the multicast injection probability per cycle for
	// the Section 5.2 experiments.
	MulticastRate float64

	// Seed makes runs reproducible.
	Seed int64

	// ProfileCycles is the dry-run length used to collect the frequency
	// matrix for adaptive shortcut selection.
	ProfileCycles int64

	// Histograms attaches a latency recorder and fills the Result's
	// PacketLatencyDist/FlitLatencyDist percentile digests.
	Histograms bool

	// Check attaches an invariant checker (flit conservation, credit
	// sanity, forward progress) that panics on violation. A checker is
	// always attached when running under "go test", Check or not.
	Check bool
}

// EstimatedCycles is the admission-time cost estimate of one run in
// simulated cycles: the injection window plus a drain allowance. The
// allowance models the common case — a quarter of the window's traffic
// still in flight, plus slack for cold pipelines — rather than the
// worst-case DrainCycles budget, which is orders of magnitude larger
// and would make every honest estimate look like a monster job. The
// sweep service sums this over a request's points to enforce its
// per-job cost ceiling, so one giant sweep cannot starve the pool.
func (o Options) EstimatedCycles() int64 {
	o = o.WithDefaults()
	drain := o.Cycles/4 + 1024
	if drain > o.DrainCycles {
		drain = o.DrainCycles
	}
	return o.Cycles + drain
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Cycles == 0 {
		o.Cycles = 60000
	}
	if o.DrainCycles == 0 {
		o.DrainCycles = 400000
	}
	if o.Rate == 0 {
		o.Rate = traffic.DefaultRate
	}
	if o.MulticastRate == 0 {
		o.MulticastRate = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ProfileCycles == 0 {
		o.ProfileCycles = defaultProfileCycles
	}
	return o
}

// Result is one (workload, design) measurement.
type Result struct {
	Workload string
	Design   string

	AvgLatency float64 // average network latency per flit (the paper's metric)
	PowerW     float64 // average watts
	AreaMM2    float64

	Stats     noc.Stats
	Breakdown power.Breakdown
	Area      power.Area
	Drained   bool

	// Drain details the post-injection drain: cycles consumed, and — when
	// the budget ran out — how many packets were stranded and how old the
	// oldest one's head flit is (the difference between "almost done" and
	// "wedged").
	Drain noc.DrainReport

	// Interrupted marks a partial measurement: the run's context was
	// cancelled (timeout or shutdown) before the simulation finished.
	// Stats reflect the state at interruption.
	Interrupted bool

	// Latency percentile digests, populated when Options.Histograms is
	// set (Count is zero otherwise).
	PacketLatencyDist obs.Summary
	FlitLatencyDist   obs.Summary
}

// Run simulates one design under one workload, with any observers
// attached for the duration of the run (latency recorders, link
// timelines, invariant checkers, or custom instrumentation). gen drives
// injection for opts.Cycles, then the network drains. Under "go test"
// every run carries an invariant checker, so any conservation or
// forward-progress regression fails the suite at the first bad audit.
// It panics on an invalid config, as noc.New does.
func Run(cfg noc.Config, gen traffic.Generator, opts Options, observers ...noc.Observer) Result {
	r, err := RunContext(context.Background(), cfg, gen, opts, observers...)
	if err != nil {
		panic(err)
	}
	return r
}

// CheckpointSpec carries per-attempt settings from the supervisor into
// one run. It configures no checkpointing: the finished point is the
// only unit of durability (the result cache and rfsimd's result log
// hold it), and an interrupted point re-runs from cycle 0, which gives
// the same bytes because points are deterministic. The name stays
// because rfbench's sweep workload wraps SweepPoint.Run, whose
// signature carries it. The zero value runs in-process.
type CheckpointSpec struct {
	// Exec, when non-nil, asks portable sweep points to dispatch this
	// attempt through the executor (a worker-process pool) instead of
	// running in the calling goroutine. The supervisor threads it from
	// SuperviseConfig.Exec; wrappers composed around SweepPoint.Run see
	// it pass through unchanged.
	Exec Executor
}

// RunContext is the one run loop behind Run and every sweep point:
// opts.Cycles of injection, then a drain bounded by opts.DrainCycles,
// checking ctx every 256 cycles.
//
// On context cancellation the partial Result (Interrupted set) is
// returned together with the context's error; an invalid config returns
// a zero Result and the error. A panic in the run is raised again as a
// *runPanic that carries the network's cycle, audit and stack, which
// the supervisor writes to its crash dump.
//
// The network is a spare from an earlier run, Reset for cfg, when one
// is kept (see takeNetwork). After a normal return, interrupted runs
// included, RunContext keeps it for a later run unless the caller's
// observers saw it. A run that panics keeps nothing.
func RunContext(ctx context.Context, cfg noc.Config, gen traffic.Generator, opts Options, observers ...noc.Observer) (Result, error) {
	opts = opts.WithDefaults()
	n, err := takeNetwork(cfg)
	if err != nil {
		return Result{}, err
	}
	r, err := runNetwork(ctx, n, cfg, gen, opts, observers)
	if len(observers) == 0 {
		giveNetwork(n)
	}
	return r, err
}

// runPanic is a panic inside a run, raised again with the network's
// state at that moment. It prints as the original value.
type runPanic struct {
	val   any
	cycle int64
	audit noc.AuditReport
	stack string // the panicking goroutine's, taken before it unwound
}

func (p *runPanic) Error() string { return fmt.Sprint(p.val) }

// runNetwork is RunContext's loop on a network built or reset for cfg.
func runNetwork(ctx context.Context, n *noc.Network, cfg noc.Config, gen traffic.Generator, opts Options, observers []noc.Observer) (Result, error) {
	defer func() {
		if v := recover(); v != nil {
			panic(&runPanic{val: v, cycle: n.Now(), audit: n.Audit(), stack: string(debug.Stack())})
		}
	}()
	var rec *obs.LatencyRecorder
	if opts.Histograms {
		rec = obs.NewLatencyRecorder()
		n.AttachObserver(rec)
	}
	if opts.Check || testing.Testing() {
		n.AttachObserver(obs.NewInvariantCheckerForDrain(opts.DrainCycles))
	}
	for _, o := range observers {
		n.AttachObserver(o)
	}

	var drain noc.DrainReport
	interrupted := func() (Result, error) {
		r := buildResult(n, gen, cfg, settleDrain(n, drain, false), rec)
		r.Interrupted = true
		return r, ctx.Err()
	}
	inject := n.Inject // one method value, not one per cycle
	for now := int64(0); now < opts.Cycles; now++ {
		if now%256 == 0 && ctx.Err() != nil {
			return interrupted()
		}
		gen.Tick(now, inject)
		n.Step()
	}
	for ; n.InFlight() > 0 && drain.CyclesUsed < opts.DrainCycles; drain.CyclesUsed++ {
		if drain.CyclesUsed%256 == 0 && ctx.Err() != nil {
			return interrupted()
		}
		n.Step()
	}
	return buildResult(n, gen, cfg, settleDrain(n, drain, true), rec), nil
}

// spareNets holds the networks of finished runs for takeNetwork to
// Reset instead of building new ones: a 10×10 network is ~1.5 MB, most
// of what a short sweep point allocates. It keeps at most GOMAXPROCS,
// as many as can step at once. A sync.Pool would keep more: its victim
// cache holds a second generation of networks across each GC.
var spareNets struct {
	sync.Mutex
	nets []*noc.Network
}

// takeNetwork returns the most recently kept spare network Reset for
// cfg, or a new network when none is kept.
func takeNetwork(cfg noc.Config) (*noc.Network, error) {
	spareNets.Lock()
	var n *noc.Network
	if k := len(spareNets.nets) - 1; k >= 0 {
		n = spareNets.nets[k]
		spareNets.nets[k] = nil
		spareNets.nets = spareNets.nets[:k]
	}
	spareNets.Unlock()
	if n == nil {
		return noc.NewChecked(cfg)
	}
	if err := n.Reset(cfg); err != nil {
		giveNetwork(n) // a failed Reset leaves the network unchanged
		return nil, err
	}
	return n, nil
}

// giveNetwork keeps a finished run's network for a later run. The
// caller must hold the only reference to it.
func giveNetwork(n *noc.Network) {
	spareNets.Lock()
	if len(spareNets.nets) < runtime.GOMAXPROCS(0) {
		spareNets.nets = append(spareNets.nets, n)
	}
	spareNets.Unlock()
}

// settleDrain fills in the drain post-mortem once the loop has stopped:
// a run is drained only if it finished with nothing in flight, and a
// stranded run records how old its oldest head flit is (the difference
// between "almost done" and "wedged").
func settleDrain(n *noc.Network, rep noc.DrainReport, finished bool) noc.DrainReport {
	rep.Stranded = n.InFlight()
	rep.Drained = finished && rep.Stranded == 0
	if rep.Stranded > 0 {
		rep.OldestHeadAge = n.Audit().OldestHeadAge
	}
	return rep
}

// buildResult computes the measurement record from a finished (or
// interrupted) network.
func buildResult(n *noc.Network, gen traffic.Generator, cfg noc.Config, drain noc.DrainReport, rec *obs.LatencyRecorder) Result {
	s := n.Stats()
	b := power.Compute(n.Config(), s)
	a := power.ComputeArea(n.Config())
	r := Result{
		Workload:   gen.Name(),
		Design:     cfg.Width.String(),
		AvgLatency: s.AvgFlitLatency(),
		PowerW:     b.Total(),
		AreaMM2:    a.Total(),
		Stats:      s,
		Breakdown:  b,
		Area:       a,
		Drained:    drain.Drained,
		Drain:      drain,
	}
	if rec != nil {
		r.PacketLatencyDist = rec.Packets.Summary()
		r.FlitLatencyDist = rec.Flits.Summary()
	}
	return r
}

// RunDesign builds and simulates design d under the named probabilistic
// trace, as a one-point plan of the runner every figure uses. Adaptive
// selection profiles a fresh same-seed instance of the trace, mirroring
// the paper's assumption that the application's communication profile
// is available beforehand.
func RunDesign(m *topology.Mesh, d Design, pat traffic.Pattern, opts Options) Result {
	opts = opts.WithDefaults()
	pt := Point{Design: d, Gen: genSpec(pat.String(), opts)}
	return newPlan([]Point{pt}).run(m, opts)[pt]
}
