package noc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// randomConfig draws a design point from the space the paper explores:
// mesh size, link width, VC count, buffer depth, shortcut set (none,
// heuristic-selected, or arbitrary legal edges), local speedup, and
// routing function.
func randomConfig(rng *rand.Rand) noc.Config {
	dims := [][2]int{{6, 6}, {6, 8}, {8, 8}, {10, 10}}
	d := dims[rng.Intn(len(dims))]
	m := topology.New(d[0], d[1])
	widths := []tech.LinkWidth{tech.Width4B, tech.Width8B, tech.Width16B}

	cfg := noc.Config{
		Mesh:            m,
		Width:           widths[rng.Intn(len(widths))],
		VCsPerClass:     1 + rng.Intn(4),
		BufDepth:        1 + rng.Intn(4),
		EscapeTimeout:   int64(4 << rng.Intn(4)),
		AdaptiveRouting: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 0: // plain mesh, no shortcuts
	case 1: // heuristic selection, as the real designs use
		sizes := []int{25, 50, 100}
		sz := sizes[rng.Intn(len(sizes))]
		// The 25- and 50-router placements substitute corners by 10x10
		// coordinates; smaller meshes take the maximal placement.
		if sz != 100 && (m.W != 10 || m.H != 10) {
			sz = 100
		}
		rf := m.RFPlacement(sz)
		eligible := make(map[int]bool, len(rf))
		for _, id := range rf {
			eligible[id] = true
		}
		cfg.Shortcuts = shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
			Budget:   1 + rng.Intn(8),
			Eligible: func(id int) bool { return eligible[id] },
		})
		cfg.RFEnabled = rf
	case 2: // arbitrary legal edges between distinct non-corner routers
		n := m.N()
		corner := map[int]bool{
			0: true, m.W - 1: true, n - m.W: true, n - 1: true,
		}
		seen := map[shortcut.Edge]bool{}
		for len(cfg.Shortcuts) < 1+rng.Intn(6) {
			e := shortcut.Edge{From: rng.Intn(n), To: rng.Intn(n)}
			if e.From == e.To || corner[e.From] || corner[e.To] || seen[e] {
				continue
			}
			seen[e] = true
			cfg.Shortcuts = append(cfg.Shortcuts, e)
		}
	}
	return cfg
}

// deliveryLedger records per-message delivery counts. Injection is
// throttled to at most one unicast per cycle, so (Inject, Src, Dst) is a
// unique message key.
type deliveryLedger struct {
	noc.BaseObserver
	delivered map[[3]int64]int
	dups      int
}

func (l *deliveryLedger) PacketDelivered(msg noc.Message, _ int64, _ int) {
	k := [3]int64{msg.Inject, int64(msg.Src), int64(msg.Dst)}
	l.delivered[k]++
	if l.delivered[k] > 1 {
		l.dups++
	}
}

// TestPropertyConservationAndDelivery drives randomized design points
// with random unicast traffic under the invariant checker, then asserts
// every injected message was delivered exactly once.
func TestPropertyConservationAndDelivery(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			cfg := randomConfig(rng)

			chk := obs.NewInvariantChecker()
			chk.Every = 128
			chk.Fail = func(format string, args ...any) {
				t.Fatalf("config %+v: "+format, append([]any{cfg}, args...)...)
			}
			ledger := &deliveryLedger{delivered: map[[3]int64]int{}}

			n := noc.New(cfg)
			n.AttachObserver(chk)
			n.AttachObserver(ledger)

			injected := map[[3]int64]bool{}
			N := cfg.Mesh.N()
			for i := 0; i < 4000; i++ {
				if rng.Float64() < 0.4 {
					src, dst := rng.Intn(N), rng.Intn(N)
					if src != dst {
						k := [3]int64{n.Now(), int64(src), int64(dst)}
						if !injected[k] {
							injected[k] = true
							n.Inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: n.Now()})
						}
					}
				}
				n.Step()
			}
			if !n.Drain(1000000) {
				t.Fatalf("config %+v failed to drain:\n%s", cfg, stuckDump(n))
			}
			chk.Check(n)

			if ledger.dups != 0 {
				t.Errorf("%d duplicate deliveries", ledger.dups)
			}
			if got, want := len(ledger.delivered), len(injected); got != want {
				t.Errorf("delivered %d distinct messages, injected %d", got, want)
			}
			for k := range injected {
				if ledger.delivered[k] != 1 {
					t.Errorf("message %v delivered %d times, want 1", k, ledger.delivered[k])
				}
			}
			if rep := n.Audit(); rep.ConservationError() != 0 || rep.FlitsBuffered != 0 {
				t.Errorf("drained network not clean: %+v", rep)
			}
		})
	}
}

// TestFaultPropertyConservationAndDelivery is the property suite under
// fire: random design points carry a random transient-fault model
// (corruption plus retransmission) and a random permanent-failure
// schedule — up to every shortcut band killed, plus mesh links — and
// must still deliver every message exactly once with flit conservation
// intact.
func TestFaultPropertyConservationAndDelivery(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			cfg := randomConfig(rng)
			if rng.Intn(2) == 0 {
				cfg.Fault = noc.FaultConfig{
					MeshBER: rng.Float64() * 0.01,
					RFBER:   rng.Float64() * 0.05,
					Seed:    int64(1 + trial),
				}
			}

			// Schedule: each shortcut band dies with probability 2/3 (some
			// trials lose all of them); up to three mesh links die too.
			type kill struct {
				cycle int64
				rf    bool
				a, b  int
			}
			var kills []kill
			for _, e := range cfg.Shortcuts {
				if rng.Intn(3) < 2 {
					kills = append(kills, kill{cycle: rng.Int63n(3000), rf: true, a: e.From})
				}
			}
			m := cfg.Mesh
			for i := rng.Intn(4); i > 0; i-- {
				r := rng.Intn(m.N())
				c := m.Coord(r)
				if c.X+1 < m.W {
					kills = append(kills, kill{cycle: rng.Int63n(3000), a: r, b: m.ID(c.X+1, c.Y)})
				}
			}

			chk := obs.NewInvariantChecker()
			chk.Every = 128
			chk.Fail = func(format string, args ...any) {
				t.Fatalf("config %+v: "+format, append([]any{cfg}, args...)...)
			}
			ledger := &deliveryLedger{delivered: map[[3]int64]int{}}

			n := noc.New(cfg)
			n.AttachObserver(chk)
			n.AttachObserver(ledger)

			injected := map[[3]int64]bool{}
			N := cfg.Mesh.N()
			for i := 0; i < 4000; i++ {
				for _, k := range kills {
					if k.cycle != n.Now() {
						continue
					}
					var err error
					if k.rf {
						err = n.KillShortcut(k.a)
					} else {
						err = n.KillMeshLink(k.a, k.b)
					}
					// Refused kills (already dead, would disconnect) are
					// part of the contract, not failures.
					_ = err
				}
				if rng.Float64() < 0.4 {
					src, dst := rng.Intn(N), rng.Intn(N)
					if src != dst {
						k := [3]int64{n.Now(), int64(src), int64(dst)}
						if !injected[k] {
							injected[k] = true
							n.Inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: n.Now()})
						}
					}
				}
				n.Step()
			}
			if !n.Drain(1000000) {
				t.Fatalf("config %+v failed to drain:\n%s", cfg, stuckDump(n))
			}
			chk.Check(n)

			if ledger.dups != 0 {
				t.Errorf("%d duplicate deliveries", ledger.dups)
			}
			if got, want := len(ledger.delivered), len(injected); got != want {
				t.Errorf("delivered %d distinct messages, injected %d", got, want)
			}
			if rep := n.Audit(); rep.ConservationError() != 0 || rep.FlitsBuffered != 0 {
				t.Errorf("drained network not clean: %+v", rep)
			}
		})
	}
}

// stuckDump renders every router still holding flits, for drain-failure
// diagnostics.
func stuckDump(n *noc.Network) string {
	rep := n.Audit()
	if rep.OldestRouter < 0 {
		return "no stuck router found"
	}
	return n.DumpRouter(rep.OldestRouter)
}

// TestPropertyCheckerCatchesCorruption is the negative control for the
// property suite: on a random config the checker must flag a seeded
// counter fault within one audit period.
func TestPropertyCheckerCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := randomConfig(rng)

	chk := obs.NewInvariantChecker()
	chk.Every = 64
	var violations int
	chk.Fail = func(string, ...any) { violations++ }

	n := noc.New(cfg)
	n.AttachObserver(chk)
	N := cfg.Mesh.N()
	for i := 0; i < 256; i++ {
		if src, dst := rng.Intn(N), rng.Intn(N); src != dst {
			n.Inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: n.Now()})
		}
		n.Step()
	}
	if violations != 0 {
		t.Fatal("violation before the fault was injected")
	}
	n.CorruptFlitCounter(+1)
	n.Run(chk.Every + 1)
	if violations == 0 {
		t.Error("checker missed the seeded fault on a randomized config")
	}
}
