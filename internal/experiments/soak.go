package experiments

// Chaos-soak harness: randomized (config, fault schedule, seed) triples
// run under the fault-isolating supervisor, a health verdict per run
// (exactly-once delivery ledger, drain completion, plus the invariant
// checker's panics), and an automatic shrinker that minimizes a failing
// triple to the smallest spec that still fails — written out as a JSON
// repro that replays byte-for-byte.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SoakSpec fully describes one chaos-soak run. It is JSON-serializable
// and self-contained: the same spec always produces the same simulation,
// which is what makes shrunken repros replayable.
type SoakSpec struct {
	MeshW int `json:"mesh_w"`
	MeshH int `json:"mesh_h"`

	// WidthBytes is the link width (4, 8 or 16).
	WidthBytes int `json:"width_bytes"`

	// VCs and BufDepth override noc defaults when nonzero.
	VCs      int `json:"vcs,omitempty"`
	BufDepth int `json:"buf_depth,omitempty"`

	// Shortcuts is the RF-I overlay plan.
	Shortcuts []shortcut.Edge `json:"shortcuts,omitempty"`

	// Pattern names a probabilistic traffic pattern (traffic.Patterns).
	Pattern string  `json:"pattern"`
	Rate    float64 `json:"rate"`

	Cycles      int64 `json:"cycles"`
	DrainCycles int64 `json:"drain_cycles"`
	Seed        int64 `json:"seed"`

	// Fault carries the flit-corruption model (noc.FaultConfig);
	// Schedule carries the deterministic link and band kills.
	Fault    noc.FaultConfig `json:"fault"`
	Schedule fault.Schedule  `json:"schedule,omitempty"`

	// Sabotage deliberately corrupts the flit conservation counter
	// mid-run (Network.CorruptFlitCounter). It exists so tests can
	// exercise the failure → shrink → replay path on demand; real soaks
	// leave it false.
	Sabotage bool `json:"sabotage,omitempty"`
}

func patternByName(name string) (traffic.Pattern, bool) {
	for _, p := range traffic.Patterns() {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// Validate reports whether the spec describes a buildable simulation.
// The shrinker uses it to discard candidate mutations that would fail
// for configuration reasons rather than reproduce the bug.
func (s SoakSpec) Validate() error {
	if s.MeshW < 6 || s.MeshH < 6 || s.MeshW%2 != 0 || s.MeshH%2 != 0 {
		return fmt.Errorf("experiments: soak mesh %dx%d unsupported (want even, >= 6x6)", s.MeshW, s.MeshH)
	}
	if !tech.LinkWidth(s.WidthBytes).Valid() {
		return fmt.Errorf("experiments: soak link width %dB not calibrated", s.WidthBytes)
	}
	if _, ok := patternByName(s.Pattern); !ok {
		return fmt.Errorf("experiments: unknown soak traffic pattern %q", s.Pattern)
	}
	if s.Rate <= 0 || s.Rate > 1 {
		return fmt.Errorf("experiments: soak injection rate %g outside (0, 1]", s.Rate)
	}
	if s.Cycles < 1 || s.DrainCycles < 1 {
		return fmt.Errorf("experiments: soak cycle budgets must be positive (%d inject, %d drain)", s.Cycles, s.DrainCycles)
	}
	if s.VCs < 0 || s.BufDepth < 0 {
		return fmt.Errorf("experiments: negative soak VC parameters")
	}
	cfg, _ := s.config()
	return cfg.Validate()
}

// config assembles the noc configuration (call Validate first; this
// builds the mesh, which rejects unsupported dimensions by panicking).
func (s SoakSpec) config() (noc.Config, *topology.Mesh) {
	m := topology.New(s.MeshW, s.MeshH)
	cfg := noc.Config{
		Mesh:        m,
		Width:       tech.LinkWidth(s.WidthBytes),
		VCsPerClass: s.VCs,
		BufDepth:    s.BufDepth,
		Shortcuts:   append([]shortcut.Edge(nil), s.Shortcuts...),
		Fault:       s.Fault,
	}
	return cfg, m
}

// RandomSoakSpec draws a reproducible random soak spec: mesh size, link
// width, buffering, overlay plan, traffic, flit-corruption rates and a
// deterministic kill schedule all derive from the seed.
func RandomSoakSpec(seed int64) SoakSpec {
	r := rng.New(seed)
	meshes := [][2]int{{6, 6}, {8, 6}, {8, 8}}
	widths := []int{4, 8, 16}
	wh := meshes[r.Intn(len(meshes))]
	s := SoakSpec{
		MeshW:       wh[0],
		MeshH:       wh[1],
		WidthBytes:  widths[r.Intn(len(widths))],
		VCs:         2 + r.Intn(3),
		BufDepth:    2 + r.Intn(4),
		Pattern:     traffic.Patterns()[r.Intn(len(traffic.Patterns()))].String(),
		Rate:        0.004 + r.Float64()*0.01,
		Cycles:      4_000 + r.Int63n(8_000),
		DrainCycles: 120_000,
		Seed:        seed,
	}
	m := topology.New(s.MeshW, s.MeshH)
	if budget := r.Intn(5); budget > 0 {
		s.Shortcuts = shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
			Budget: budget, MeshW: s.MeshW, MeshH: s.MeshH,
		})
	}
	pick := func(vals ...float64) float64 { return vals[r.Intn(len(vals))] }
	s.Fault = noc.FaultConfig{
		MeshBER:    pick(0, 0, 1e-5, 5e-5),
		RFBER:      pick(0, 1e-5, 1e-4),
		RetryLimit: 5 + r.Intn(4),
		Seed:       seed + 1,
	}
	bands := len(s.Shortcuts)
	if events := r.Intn(6); events > 0 {
		s.Schedule = fault.RandomChaosSchedule(seed+2, s.MeshW, s.MeshH, bands, events, s.Cycles)
	}
	return s
}

// saboteur corrupts the injected-flit counter once, mid-run, so the
// invariant checker's next audit fails. Test scaffolding for the
// failure path (see SoakSpec.Sabotage).
type saboteur struct {
	noc.BaseObserver
	at   int64
	done bool
}

func (s *saboteur) CycleEnd(n *noc.Network) {
	if !s.done && n.Now() >= s.at {
		n.CorruptFlitCounter(+1)
		s.done = true
	}
}

// RunSoakSpec executes one soak spec. The invariant checker is always
// attached (it panics on a violation), and the fault schedule runs under
// a fresh Injector. The returned Result carries the drain report and
// full stats for CheckSoak.
func RunSoakSpec(ctx context.Context, spec SoakSpec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	cfg, m := spec.config()
	pat, _ := patternByName(spec.Pattern)
	gen := traffic.NewProbabilistic(m, pat, spec.Rate, spec.Seed)
	observers := []noc.Observer{fault.NewInjector(spec.Schedule)}
	if spec.Sabotage {
		observers = append(observers, &saboteur{at: spec.Cycles / 2})
	}
	opts := Options{
		Cycles:      spec.Cycles,
		DrainCycles: spec.DrainCycles,
		Rate:        spec.Rate,
		Seed:        spec.Seed,
		Check:       true,
	}
	return RunContext(ctx, cfg, gen, opts, observers...)
}

// CheckSoak is the soak health verdict for a completed run: the drain
// must finish within budget and the exactly-once delivery ledger must
// close — every injected packet ejected, or counted lost (no remaining
// mechanism abandons one, so lost stays 0). Valid only for unicast
// workloads (which soak specs are).
func CheckSoak(res Result) error {
	if !res.Drained {
		return fmt.Errorf("drain budget exhausted: %d packets stranded after %d cycles, oldest head flit %d cycles old",
			res.Drain.Stranded, res.Drain.CyclesUsed, res.Drain.OldestHeadAge)
	}
	s := res.Stats
	if s.PacketsInjected != s.PacketsEjected+s.PacketsLost {
		return fmt.Errorf("exactly-once ledger broken: injected %d != ejected %d + lost %d",
			s.PacketsInjected, s.PacketsEjected, s.PacketsLost)
	}
	return nil
}

// soakFailure runs a spec and returns the reason it fails, a panic
// included, or "" when it passes. Context cancellation is not a failure.
func soakFailure(ctx context.Context, spec SoakSpec) (reason string) {
	defer func() {
		if r := recover(); r != nil {
			reason = fmt.Sprintf("experiments: soak run panicked: %v", r)
		}
	}()
	res, err := RunSoakSpec(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			return ""
		}
		return err.Error()
	}
	if err := CheckSoak(res); err != nil {
		return err.Error()
	}
	return ""
}

// shrinkCandidates proposes one-step reductions of a failing spec, most
// aggressive first: drop schedule halves, then single events, then zero
// each corruption rate, then shrink the run and the fabric.
func shrinkCandidates(s SoakSpec) []SoakSpec {
	var out []SoakSpec
	mut := func(f func(*SoakSpec)) {
		c := s
		c.Schedule = append(fault.Schedule(nil), s.Schedule...)
		c.Shortcuts = append([]shortcut.Edge(nil), s.Shortcuts...)
		f(&c)
		out = append(out, c)
	}
	// Schedule reduction: front half, back half, then each single event.
	if n := len(s.Schedule); n > 1 {
		mut(func(c *SoakSpec) { c.Schedule = c.Schedule[:n/2] })
		mut(func(c *SoakSpec) { c.Schedule = append(fault.Schedule(nil), s.Schedule[n/2:]...) })
	}
	for i := range s.Schedule {
		i := i
		mut(func(c *SoakSpec) { c.Schedule = append(c.Schedule[:i], c.Schedule[i+1:]...) })
	}
	// Zero each corruption rate.
	if s.Fault.MeshBER != 0 {
		mut(func(c *SoakSpec) { c.Fault.MeshBER = 0 })
	}
	if s.Fault.RFBER != 0 {
		mut(func(c *SoakSpec) { c.Fault.RFBER = 0 })
	}
	// Shrink the run and the fabric.
	if s.Cycles > 512 {
		mut(func(c *SoakSpec) { c.Cycles /= 2 })
	}
	if s.Rate > 0.001 {
		mut(func(c *SoakSpec) { c.Rate /= 2 })
	}
	if len(s.Shortcuts) > 0 {
		mut(func(c *SoakSpec) { c.Shortcuts = nil })
	}
	if s.VCs > 2 {
		mut(func(c *SoakSpec) { c.VCs-- })
	}
	if s.BufDepth > 2 {
		mut(func(c *SoakSpec) { c.BufDepth-- })
	}
	return out
}

// ShrinkSoak greedily minimizes a failing spec: each round tries the
// candidate reductions in order and recurses on the first that still
// fails (any failure reason counts — the minimal repro may surface the
// defect differently than the original). At most budget candidate runs
// execute; the original reason is kept when nothing shrinks. Returns the
// minimized spec, its failure reason, and the attempts used.
func ShrinkSoak(ctx context.Context, spec SoakSpec, reason string, budget int) (SoakSpec, string, int) {
	if budget <= 0 {
		budget = 64
	}
	cur, curReason := spec, reason
	attempts := 0
	for attempts < budget {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			if attempts >= budget || ctx.Err() != nil {
				break
			}
			if cand.Validate() != nil {
				continue
			}
			attempts++
			if why := soakFailure(ctx, cand); why != "" {
				cur, curReason = cand, why
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur, curReason, attempts
}

// SoakRepro is the crash-dump JSON written for a failed soak run: the
// minimized spec plus the failure it reproduces. Replay it with
// ReplaySoak (cmd/rfsim -shrink).
type SoakRepro struct {
	// Spec is the smallest still-failing spec the shrinker found.
	Spec SoakSpec `json:"spec"`

	// Reason is Spec's failure, Original the unshrunk spec's.
	Reason   string `json:"reason"`
	Original string `json:"original_reason,omitempty"`

	// Shrunk is false when no reduction of the original spec still
	// failed (Spec is then the original).
	Shrunk bool `json:"shrunk"`

	// Attempts is how many candidate runs the shrinker spent.
	Attempts int `json:"attempts"`
}

// WriteSoakRepro persists a repro as indented JSON.
func WriteSoakRepro(path string, rep SoakRepro) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// LoadSoakRepro reads a repro written by WriteSoakRepro.
func LoadSoakRepro(path string) (SoakRepro, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return SoakRepro{}, err
	}
	var rep SoakRepro
	if err := json.Unmarshal(blob, &rep); err != nil {
		return SoakRepro{}, fmt.Errorf("experiments: bad soak repro %s: %w", path, err)
	}
	return rep, nil
}

// ReplaySoak re-runs a repro's spec and reports the failure it
// reproduces ("" when it no longer fails — the bug is fixed or the
// repro is stale).
func ReplaySoak(ctx context.Context, rep SoakRepro) string {
	return soakFailure(ctx, rep.Spec)
}

// SoakConfig tunes a chaos soak.
type SoakConfig struct {
	// Runs is how many random specs to soak.
	Runs int

	// Seed derives each run's spec (run i uses Seed+i), so a soak is
	// reproducible end to end.
	Seed int64

	// Dir receives crash dumps and shrunken repro JSONs.
	// Empty disables persistence (failures are still reported).
	Dir string

	// ShrinkBudget bounds candidate runs per failing spec (default 64).
	ShrinkBudget int
}

// SoakOutcome describes one soak run's fate.
type SoakOutcome struct {
	ID     string
	Spec   SoakSpec
	Reason string // "" when healthy
	Repro  string // path of the shrunken repro JSON, "" if none written
}

// Soak runs sc.Runs randomized soak specs under the fault-isolating
// supervisor on the package Workers, applies the health verdict to each,
// and shrinks every failure to a minimal repro (written to Dir as
// <id>.repro.json when Dir is set). The error is non-nil when any run
// failed; outcomes carry the details either way.
func Soak(ctx context.Context, sc SoakConfig) ([]SoakOutcome, error) {
	if sc.Runs <= 0 {
		sc.Runs = 1
	}
	outcomes := make([]SoakOutcome, sc.Runs)
	points := make([]SweepPoint, sc.Runs)
	for i := 0; i < sc.Runs; i++ {
		spec := RandomSoakSpec(sc.Seed + int64(i))
		id := fmt.Sprintf("soak-%d", sc.Seed+int64(i))
		outcomes[i] = SoakOutcome{ID: id, Spec: spec}
		points[i] = SweepPoint{
			ID: id,
			Meta: map[string]string{
				"pattern": spec.Pattern,
				"mesh":    fmt.Sprintf("%dx%d", spec.MeshW, spec.MeshH),
				"seed":    fmt.Sprint(spec.Seed),
			},
			Run: func(ctx context.Context, _ CheckpointSpec) (Result, error) {
				return RunSoakSpec(ctx, spec)
			},
		}
	}
	results, supErr := Supervise(ctx, SuperviseConfig{
		Retries: 0, Dir: sc.Dir,
	}, points)
	if ctx.Err() != nil {
		return outcomes, ctx.Err()
	}
	_ = supErr // per-point errors are folded into the verdicts below

	failures := 0
	for i := range outcomes {
		o := &outcomes[i]
		switch {
		case results[i].Err != nil:
			o.Reason = results[i].Err.Error()
		default:
			if err := CheckSoak(results[i].Result); err != nil {
				o.Reason = err.Error()
			}
		}
		if o.Reason == "" {
			continue
		}
		failures++
		shrunk, reason, attempts := ShrinkSoak(ctx, o.Spec, o.Reason, sc.ShrinkBudget)
		rep := SoakRepro{
			Spec:     shrunk,
			Reason:   reason,
			Original: o.Reason,
			Shrunk:   attempts > 0 && reason != o.Reason || specSmaller(shrunk, o.Spec),
			Attempts: attempts,
		}
		if sc.Dir != "" {
			path := filepath.Join(sc.Dir, o.ID+".repro.json")
			if err := WriteSoakRepro(path, rep); err == nil {
				o.Repro = path
			}
		}
		o.Spec, o.Reason = shrunk, reason
	}
	if failures > 0 {
		return outcomes, fmt.Errorf("experiments: %d of %d soak runs failed", failures, sc.Runs)
	}
	return outcomes, nil
}

// specSmaller reports whether a is a strict reduction of b on any
// shrinkable axis (used only to label repros as shrunk).
func specSmaller(a, b SoakSpec) bool {
	return len(a.Schedule) < len(b.Schedule) ||
		a.Cycles < b.Cycles || a.Rate < b.Rate ||
		len(a.Shortcuts) < len(b.Shortcuts) ||
		a.VCs < b.VCs || a.BufDepth < b.BufDepth ||
		a.Fault != b.Fault
}
