package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// soakTraffic injects random unicast traffic for cycles steps and
// returns the per-message injection ledger.
func soakTraffic(n *Network, m *topology.Mesh, seed int64, cycles int, rate float64, mid func(*Network, int)) map[[3]int64]bool {
	rng := rand.New(rand.NewSource(seed))
	injected := map[[3]int64]bool{}
	for i := 0; i < cycles; i++ {
		if mid != nil {
			mid(n, i)
		}
		if rng.Float64() < rate {
			src, dst := rng.Intn(m.N()), rng.Intn(m.N())
			if src != dst {
				k := [3]int64{n.Now(), int64(src), int64(dst)}
				if !injected[k] {
					injected[k] = true
					n.Inject(Message{Src: src, Dst: dst, Class: Data, Inject: n.Now()})
				}
			}
		}
		n.Step()
	}
	return injected
}

// assertExactlyOnce checks the end-to-end ledger after a drained run:
// every injected message was delivered exactly once or explicitly
// abandoned, and the flit conservation identity holds.
func assertExactlyOnce(t *testing.T, n *Network, ledger *faultLedger, injected map[[3]int64]bool) {
	t.Helper()
	s := n.Stats()
	if ledger.dups != 0 {
		t.Errorf("duplicate deliveries: %d", ledger.dups)
	}
	if got, want := int64(len(ledger.delivered))+s.PacketsLost, int64(len(injected)); got != want {
		t.Errorf("delivery ledger broken: %d delivered + %d lost != %d injected",
			len(ledger.delivered), s.PacketsLost, want)
	}
	if s.PacketsInjected != s.PacketsEjected+s.PacketsLost {
		t.Errorf("stats ledger broken: injected %d != ejected %d + lost %d",
			s.PacketsInjected, s.PacketsEjected, s.PacketsLost)
	}
	rep := n.Audit()
	if err := rep.ConservationError(); err != 0 {
		t.Errorf("flit conservation broken: %+d (%+v)", err, rep)
	}
	if rep.FlitsBuffered != 0 {
		t.Errorf("drained network still buffers %d flits", rep.FlitsBuffered)
	}
}

// watchdogConfig returns a config with aggressive watchdog horizons so
// recovery fires inside short test runs.
func watchdogConfig(m *topology.Mesh, fault FaultConfig, integrity bool) Config {
	return Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 4}),
		Fault:     fault,
		Integrity: integrity,
		Watchdog: WatchdogConfig{
			Enabled: true, CheckEvery: 256, StallHorizon: 4_096, Grace: 512,
		},
	}
}

// TestPropertyExactlyOnceUnderFaultModes is the PR's core property: for
// each adversarial fault mode at a non-zero rate, with the watchdog
// armed, every injected packet is delivered exactly once or explicitly
// abandoned, and flit conservation survives whatever recovery ran.
func TestPropertyExactlyOnceUnderFaultModes(t *testing.T) {
	t.Parallel()
	modes := []struct {
		name     string
		fault    FaultConfig
		activity func(Stats) int64
	}{
		{"misroute", FaultConfig{MisrouteRate: 0.02, Seed: 3},
			func(s Stats) int64 { return s.MisroutedPackets }},
		{"misdeliver", FaultConfig{MisdeliverRate: 0.2, Seed: 5},
			func(s Stats) int64 { return s.MisdeliveredPackets }},
		{"duplicate", FaultConfig{DuplicateRate: 0.2, Seed: 7},
			func(s Stats) int64 { return s.DuplicatesInjected }},
		{"credit-leak", FaultConfig{CreditLeakRate: 0.002, Seed: 9},
			func(s Stats) int64 { return s.CreditLeaks }},
		{"stuck-vc", FaultConfig{StuckVCRate: 0.001, Seed: 11},
			func(s Stats) int64 { return s.StuckVCs }},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			m := topology.New(6, 6)
			n := New(watchdogConfig(m, mode.fault, true))
			ledger := newFaultLedger()
			n.AttachObserver(ledger)
			injected := soakTraffic(n, m, 21, 6000, 0.4, nil)
			if !n.Drain(200_000) {
				rep := n.Audit()
				t.Fatalf("network wedged despite watchdog: %d in flight, oldest head %d cycles\n%s",
					n.InFlight(), rep.OldestHeadAge, n.DumpRouter(rep.OldestRouter))
			}
			if mode.activity(n.Stats()) == 0 {
				t.Fatalf("fault mode %s never fired — rate too low for the test to mean anything", mode.name)
			}
			assertExactlyOnce(t, n, ledger, injected)
		})
	}
}

// TestWatchdogUnsticksVCs deterministically wedges input VCs mid-run
// and checks the watchdog recovery clears them so the network drains.
func TestWatchdogUnsticksVCs(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	n := New(watchdogConfig(m, FaultConfig{}, true))
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	injected := soakTraffic(n, m, 31, 5000, 0.5, func(n *Network, i int) {
		if i == 1500 {
			// Wedge every normal VC on the four input ports around the
			// mesh center.
			for _, r := range []int{14, 15, 20, 21} {
				for p := portNorth; p <= portWest; p++ {
					if err := n.StickVC(r, p); err != nil {
						t.Fatalf("StickVC(%d,%d): %v", r, p, err)
					}
				}
			}
		}
	})
	if !n.Drain(200_000) {
		t.Fatalf("stuck VCs never recovered: %d in flight", n.InFlight())
	}
	s := n.Stats()
	if s.StuckVCs == 0 {
		t.Fatal("StickVC registered no faults")
	}
	if s.WatchdogRecoveries == 0 || s.RecoveryVCUnsticks == 0 {
		t.Errorf("watchdog never unstuck (recoveries %d, unsticks %d)",
			s.WatchdogRecoveries, s.RecoveryVCUnsticks)
	}
	assertExactlyOnce(t, n, ledger, injected)
}

// TestWatchdogRepairsLeakedCredits starves a hot link of credits and
// checks the watchdog credit re-audit restores them.
func TestWatchdogRepairsLeakedCredits(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	n := New(watchdogConfig(m, FaultConfig{}, true))
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	injected := soakTraffic(n, m, 41, 5000, 0.5, func(n *Network, i int) {
		if i == 1500 {
			// Bleed credits from several central links, repeatedly: each
			// call destroys one credit until the buffers are exhausted.
			for _, lk := range [][2]int{{14, 15}, {15, 21}, {20, 21}, {14, 20}} {
				for k := 0; k < 16; k++ {
					if err := n.LeakLinkCredit(lk[0], lk[1]); err != nil {
						t.Fatalf("LeakLinkCredit%v: %v", lk, err)
					}
				}
			}
		}
	})
	if !n.Drain(200_000) {
		t.Fatalf("leaked credits never repaired: %d in flight", n.InFlight())
	}
	s := n.Stats()
	if s.CreditLeaks == 0 {
		t.Fatal("LeakLinkCredit registered no faults")
	}
	if s.WatchdogRecoveries == 0 || s.RecoveryCreditRepairs == 0 {
		t.Errorf("watchdog never repaired credits (recoveries %d, repairs %d)",
			s.WatchdogRecoveries, s.RecoveryCreditRepairs)
	}
	assertExactlyOnce(t, n, ledger, injected)
}

// TestPropertyExactlyOnceMisrouteAndBandKill combines stochastic
// misrouting with deterministic band kills mid-run — the RF overlay
// degrades while packets are being diverted — and requires the
// exactly-once ledger to survive.
func TestPropertyExactlyOnceMisrouteAndBandKill(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	cfg := watchdogConfig(m, FaultConfig{MisrouteRate: 0.02, RetryLimit: 6, Seed: 13}, true)
	n := New(cfg)
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	bands := n.Config().Shortcuts
	if len(bands) < 2 {
		t.Fatalf("want >= 2 bands for the kill schedule, got %d", len(bands))
	}
	injected := soakTraffic(n, m, 51, 6000, 0.4, func(n *Network, i int) {
		switch i {
		case 2000:
			if err := n.KillShortcut(bands[0].From); err != nil {
				t.Fatalf("KillShortcut(%d): %v", bands[0].From, err)
			}
		case 3500:
			if err := n.KillShortcut(bands[1].From); err != nil {
				t.Fatalf("KillShortcut(%d): %v", bands[1].From, err)
			}
		}
	})
	if !n.Drain(200_000) {
		t.Fatalf("network wedged: %d in flight", n.InFlight())
	}
	s := n.Stats()
	if s.MisroutedPackets == 0 {
		t.Fatal("misroute mode never fired")
	}
	if s.LinkFailures < 2 {
		t.Fatalf("band kills not registered: %d link failures", s.LinkFailures)
	}
	assertExactlyOnce(t, n, ledger, injected)
}

// escapeCDG builds the channel dependency graph of the escape class:
// one vertex per directed channel (router*numPorts + output port), and
// an edge c1 -> c2 whenever an escape packet for some destination
// leaves a router over c1 and escapeRoute sends it on over c2 at the
// next router. Off-mesh hops are left out; the path walk reports them.
func escapeCDG(n *Network) *graph.Digraph {
	N := n.cfg.Mesh.N()
	g := graph.New(N * numPorts)
	for d := 0; d < N; d++ {
		for r := 0; r < N; r++ {
			if r == d {
				continue
			}
			p := n.escapeRoute(r, d)
			nb := neighborThrough(n, r, p)
			if nb < 0 || nb == d {
				continue
			}
			g.AddEdge(r*numPorts+p, nb*numPorts+n.escapeRoute(nb, d), 1)
		}
	}
	return g
}

// findCycle returns the vertices of one directed cycle of g, or nil if
// g is acyclic (depth-first search with grey/black marking).
func findCycle(g *graph.Digraph) []int {
	const white, grey, black = 0, 1, 2
	color := make([]int8, g.N())
	parent := make([]int, g.N())
	var cycle []int
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = grey
		for _, e := range g.OutEdges(v) {
			switch color[e.To] {
			case grey:
				for u := v; u != e.To; u = parent[u] {
					cycle = append(cycle, u)
				}
				cycle = append(cycle, e.To)
				slices.Reverse(cycle)
				return true
			case white:
				parent[e.To] = v
				if visit(e.To) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < g.N(); v++ {
		if color[v] == white && visit(v) {
			return cycle
		}
	}
	return nil
}

// assertEscapeCDGAcyclic fails the test if the escape class's channel
// dependency graph has a cycle: Duato's condition for deadlock freedom,
// which is what lets the watchdog stop at credit and VC repair.
func assertEscapeCDGAcyclic(t *testing.T, n *Network, what string) {
	t.Helper()
	if cycle := findCycle(escapeCDG(n)); cycle != nil {
		var b strings.Builder
		for _, c := range cycle {
			fmt.Fprintf(&b, " %d:%s", c/numPorts, PortName(c%numPorts))
		}
		t.Fatalf("%s: escape-class channel dependency cycle (router:port):%s", what, b.String())
	}
}

// TestPropertyEscapeRouteSpanningTree kills random (connectivity-
// preserving) mesh link sets and verifies the escape routing function
// still realizes a spanning tree: from every router, following
// escapeRoute hops reaches every destination over live links without
// ever revisiting a router (cycle-free), in at most N-1 hops. The escape
// class's channel dependency graph must be acyclic on the fault-free XY
// mesh and after every kill set.
func TestPropertyEscapeRouteSpanningTree(t *testing.T) {
	t.Parallel()
	assertEscapeCDGAcyclic(t, New(Config{Mesh: topology.New(6, 6), Width: tech.Width16B}), "fault-free XY")
	for seed := int64(0); seed < 6; seed++ {
		m := topology.New(6, 6)
		n := New(Config{Mesh: m, Width: tech.Width16B})
		rng := rand.New(rand.NewSource(seed))
		kills := 0
		for attempt := 0; attempt < 20 && kills < 8; attempt++ {
			a := rng.Intn(m.N())
			ax, ay := a%6, a/6
			var b int
			if rng.Intn(2) == 0 && ax+1 < 6 {
				b = a + 1
			} else if ay+1 < 6 {
				b = a + 6
			} else {
				continue
			}
			if err := n.KillMeshLink(a, b); err == nil {
				kills++
			}
		}
		assertEscapeCDGAcyclic(t, n, fmt.Sprintf("seed %d kills %d", seed, kills))
		dead := map[[2]int]bool{}
		for _, lk := range n.DeadMeshLinks() {
			dead[lk] = true
			dead[[2]int{lk[1], lk[0]}] = true
		}
		N := m.N()
		for d := 0; d < N; d++ {
			for r := 0; r < N; r++ {
				cur, hops := r, 0
				seen := map[int]bool{r: true}
				for cur != d {
					port := n.escapeRoute(cur, d)
					if port == portLocal || port == portRF {
						t.Fatalf("seed %d kills %d: escapeRoute(%d,%d) = %s before arrival",
							seed, kills, cur, d, PortName(port))
					}
					nb := neighborThrough(n, cur, port)
					if nb < 0 {
						t.Fatalf("seed %d: escapeRoute(%d,%d) points off-mesh via %s",
							seed, cur, d, PortName(port))
					}
					if dead[[2]int{cur, nb}] {
						t.Fatalf("seed %d: escapeRoute(%d,%d) crosses dead link %d-%d",
							seed, cur, d, cur, nb)
					}
					if seen[nb] {
						t.Fatalf("seed %d: escape path to %d revisits router %d (cycle)", seed, d, nb)
					}
					seen[nb] = true
					cur = nb
					if hops++; hops >= N {
						t.Fatalf("seed %d: escape path %d->%d exceeds %d hops", seed, r, d, N)
					}
				}
			}
		}
	}
}
