// Package fault provides the scheduling and orchestration layer over the
// fault-injection mechanics built into internal/noc: deterministic,
// seedable schedules of permanent failures (RF-I shortcut bands, mesh
// links, the multicast band), an Observer that applies them at the
// scheduled cycles during a live run, and optional automatic replanning
// of the shortcut overlay around failed RF endpoints.
//
// The split mirrors the rest of the tree: package noc owns the pipeline
// mechanics (CRC/retransmission, link death, degraded routing) and stays
// dependency-free; this package owns policy — when links die and what to
// do about the lost bandwidth.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/shortcut"
)

// Kind is a category of permanent failure.
type Kind int

const (
	// KillShortcut fails the outbound RF-I shortcut band at router A.
	KillShortcut Kind = iota

	// KillMeshLink fails the physical mesh link between adjacent
	// routers A and B (both directions).
	KillMeshLink

	// KillBand fails RF band index A of the current plan: indices below
	// the shortcut count map to that shortcut's band, and the next index
	// is the multicast band (when configured). Resolution happens at
	// apply time against the network's then-current configuration.
	KillBand
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KillShortcut:
		return "kill-shortcut"
	case KillMeshLink:
		return "kill-mesh-link"
	case KillBand:
		return "kill-band"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled permanent failure.
type Event struct {
	// Cycle is when the failure strikes (applied at the end of the first
	// cycle with Now >= Cycle).
	Cycle int64
	Kind  Kind
	// A and B identify the victim: a source router (KillShortcut), a
	// router pair (KillMeshLink), or a band index (KillBand, A only).
	A, B int
}

// String renders the event in the CLI flag syntax.
func (e Event) String() string {
	switch e.Kind {
	case KillMeshLink:
		return fmt.Sprintf("%d-%d@%d", e.A, e.B, e.Cycle)
	case KillBand:
		return fmt.Sprintf("band%d@%d", e.A, e.Cycle)
	}
	return fmt.Sprintf("shortcut%d@%d", e.A, e.Cycle)
}

// Schedule is a set of failure events. Order does not matter; the
// Injector applies events in cycle order.
type Schedule []Event

// sorted returns a cycle-ordered copy (stable, so same-cycle events keep
// their schedule order).
func (s Schedule) sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// RandomChaosSchedule draws a reproducible permanent-failure schedule
// for chaos soaking: `events` faults at cycles uniform in [1, window],
// each a mesh-link kill or an RF band kill (the KillBand index
// convention) on a meshW×meshH row-major mesh with `bands` RF bands;
// with no bands every event is a mesh-link kill. Events the network
// refuses at apply time (a link kill that would disconnect the mesh, a
// doomed band already dead) are recorded as skips by the Injector —
// that, too, is chaos.
func RandomChaosSchedule(seed int64, meshW, meshH, bands, events int, window int64) Schedule {
	if events <= 0 || window < 1 || meshW < 2 || meshH < 2 {
		return nil
	}
	r := rng.New(seed)
	adjacent := func() (int, int) {
		a := r.Intn(meshW * meshH)
		x, y := a%meshW, a/meshW
		horizontal := r.Intn(2) == 0
		switch {
		case horizontal && x+1 < meshW:
			return a, a + 1
		case y+1 < meshH:
			return a, a + meshW
		case x+1 < meshW:
			return a, a + 1
		default: // top-right corner
			return a, a - meshW
		}
	}
	var s Schedule
	for i := 0; i < events; i++ {
		e := Event{Cycle: 1 + r.Int63n(window)}
		if r.Intn(2) == 1 && bands > 0 {
			e.Kind = KillBand
			e.A = r.Intn(bands)
		} else {
			e.Kind = KillMeshLink
			e.A, e.B = adjacent()
		}
		s = append(s, e)
	}
	return s.sorted()
}

// ParseLinkKill parses the -kill-link flag syntax "A-B@CYCLE" (e.g.
// "12-13@5000"): fail the mesh link between routers A and B at CYCLE.
func ParseLinkKill(s string) (Event, error) {
	spec, cycle, err := splitAt(s)
	if err != nil {
		return Event{}, fmt.Errorf("fault: bad link kill %q: %v", s, err)
	}
	a, b, ok := strings.Cut(spec, "-")
	if !ok {
		return Event{}, fmt.Errorf("fault: bad link kill %q: want A-B@CYCLE", s)
	}
	av, err1 := strconv.Atoi(a)
	bv, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil {
		return Event{}, fmt.Errorf("fault: bad link kill %q: non-numeric router", s)
	}
	return Event{Cycle: cycle, Kind: KillMeshLink, A: av, B: bv}, nil
}

// ParseBandKill parses the -kill-band flag syntax "I@CYCLE" (e.g.
// "3@5000"): fail band index I at CYCLE.
func ParseBandKill(s string) (Event, error) {
	spec, cycle, err := splitAt(s)
	if err != nil {
		return Event{}, fmt.Errorf("fault: bad band kill %q: %v", s, err)
	}
	i, err := strconv.Atoi(spec)
	if err != nil || i < 0 {
		return Event{}, fmt.Errorf("fault: bad band kill %q: want I@CYCLE", s)
	}
	return Event{Cycle: cycle, Kind: KillBand, A: i}, nil
}

func splitAt(s string) (spec string, cycle int64, err error) {
	spec, at, ok := strings.Cut(s, "@")
	if !ok {
		return "", 0, fmt.Errorf("missing @CYCLE")
	}
	cycle, err = strconv.ParseInt(at, 10, 64)
	if err != nil || cycle < 0 {
		return "", 0, fmt.Errorf("bad cycle %q", at)
	}
	return spec, cycle, nil
}

// Skip records a scheduled event that could not be applied, with the
// reason the network gave.
type Skip struct {
	Event Event
	Err   error
}

// Injector is an Observer that applies a failure Schedule to a live
// network at the scheduled cycles, and — when AutoReplan is set —
// retunes the shortcut overlay around the failed hardware at the next
// quiesced point. Attach it before the run starts; it must be the kill
// site (never call the network's Kill* methods directly while an
// Injector drives the same schedule).
type Injector struct {
	noc.BaseObserver

	// AutoReplan, when set, re-runs shortcut selection (max-cost over the
	// frequency matrix observed since the last replan, excluding failed
	// RF endpoints) and calls Network.Reconfigure once the network next
	// drains after a shortcut loss. The reconfiguration stall
	// (noc.ReconfigurationCycles) is paid inside Reconfigure.
	AutoReplan bool

	// Budget is the shortcut budget for replans. Zero means "as many as
	// the current plan", shrinking as endpoints fail.
	Budget int

	schedule Schedule
	next     int

	replanPending bool
	busy          bool // reentrancy guard: Reconfigure steps the network

	skipped []Skip
	applied []Event
	replans int
}

// NewInjector builds an Injector over a schedule (copied and sorted).
func NewInjector(s Schedule) *Injector {
	return &Injector{schedule: s.sorted()}
}

// Skipped lists the events the network refused (unknown victims, kills
// that would disconnect the mesh, already-dead links).
func (in *Injector) Skipped() []Skip { return in.skipped }

// Applied lists the events that took effect, in application order.
func (in *Injector) Applied() []Event { return in.applied }

// Replans counts successful automatic reconfigurations.
func (in *Injector) Replans() int { return in.replans }

// Done reports whether every scheduled event has been consumed (applied
// or skipped) and no replan is pending.
func (in *Injector) Done() bool {
	return in.next >= len(in.schedule) && !in.replanPending
}

// CycleEnd applies due events. Reconfigure internally steps the network
// to pay the table-update stall, which re-enters CycleEnd; the busy
// guard makes those nested calls no-ops.
func (in *Injector) CycleEnd(n *noc.Network) {
	if in.busy {
		return
	}
	in.busy = true
	defer func() { in.busy = false }()

	now := n.Now()
	for in.next < len(in.schedule) && in.schedule[in.next].Cycle <= now {
		e := in.schedule[in.next]
		in.next++
		if err := in.apply(n, e); err != nil {
			in.skipped = append(in.skipped, Skip{Event: e, Err: err})
			continue
		}
		in.applied = append(in.applied, e)
	}
	if in.replanPending && in.AutoReplan && n.InFlight() == 0 {
		in.replanPending = false
		if err := in.replan(n); err != nil {
			in.skipped = append(in.skipped, Skip{
				Event: Event{Cycle: now, Kind: KillBand, A: -1},
				Err:   fmt.Errorf("fault: replan failed: %v", err),
			})
		} else {
			in.replans++
		}
	}
}

// apply resolves and executes one event against the network's current
// configuration.
func (in *Injector) apply(n *noc.Network, e Event) error {
	switch e.Kind {
	case KillShortcut:
		return in.killShortcut(n, e.A)
	case KillMeshLink:
		return n.KillMeshLink(e.A, e.B)
	case KillBand:
		shortcuts := n.Config().Shortcuts
		if e.A < len(shortcuts) {
			return in.killShortcut(n, shortcuts[e.A].From)
		}
		if e.A == len(shortcuts) && n.MulticastBandAlive() {
			return n.KillMulticastBand()
		}
		return fmt.Errorf("fault: no band %d in the current plan", e.A)
	}
	return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
}

func (in *Injector) killShortcut(n *noc.Network, from int) error {
	if err := n.KillShortcut(from); err != nil {
		return err
	}
	if in.AutoReplan {
		in.replanPending = true
	}
	return nil
}

// replan selects a fresh shortcut set over the observed traffic,
// excluding every failed RF endpoint, and installs it. Called only on a
// drained network (Reconfigure requires quiescence).
func (in *Injector) replan(n *noc.Network) error {
	cfg := n.Config()
	budget := in.Budget
	if budget == 0 {
		budget = len(cfg.Shortcuts)
	}
	eligible := eligibleSet(n, cfg)
	params := shortcut.Params{
		Budget:   budget,
		Eligible: eligible,
		Freq:     n.ObservedFrequency(),
		MeshW:    cfg.Mesh.W,
		MeshH:    cfg.Mesh.H,
	}
	edges := shortcut.SelectMaxCost(cfg.Mesh.Graph(), params)
	if len(edges) == 0 {
		// The observed matrix had no traffic between surviving eligible
		// pairs (short profiling window, or the hot flows used the dead
		// band); fall back to the architecture-specific objective rather
		// than running with no overlay at all.
		params.Freq = nil
		edges = shortcut.SelectMaxCost(cfg.Mesh.Graph(), params)
	}
	if err := n.Reconfigure(edges); err != nil {
		return err
	}
	n.ResetObservedFrequency()
	return nil
}

// eligibleSet restricts replan endpoints to the design's access points
// (RFEnabled, or the current plan's endpoints for static designs) minus
// routers whose RF hardware has failed. A router with only a failed
// transmitter could still receive (and vice versa), but the selector has
// a single eligibility notion, so a failed endpoint is excluded from
// both roles — the conservative choice.
func eligibleSet(n *noc.Network, cfg noc.Config) func(int) bool {
	allowed := map[int]bool{}
	if len(cfg.RFEnabled) > 0 {
		for _, r := range cfg.RFEnabled {
			allowed[r] = true
		}
	} else {
		for _, e := range cfg.Shortcuts {
			allowed[e.From] = true
			allowed[e.To] = true
		}
		for _, e := range n.FailedShortcuts() {
			allowed[e.From] = true
			allowed[e.To] = true
		}
	}
	return func(id int) bool {
		if !allowed[id] {
			return false
		}
		tx, rx := n.FailedRFEndpoint(id)
		return !tx && !rx
	}
}
