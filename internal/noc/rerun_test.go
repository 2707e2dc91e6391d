package noc

import (
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// snapScenario is one design point plus a deterministic event script for
// the rerun property: the traffic and kill events are pure functions of
// the cycle, so the stream replays identically on the uninterrupted run,
// the run cut short, and the run redone from cycle 0.
type snapScenario struct {
	name    string
	cfg     func() Config
	rate    float64
	mcRate  float64 // multicast injection probability per cycle
	events  func(n *Network, now int64)
	cycles  int64
	persist bool // run Reconfigure mid-script
}

func snapScenarios() []snapScenario {
	mesh := topology.New10x10()
	static := func() Config {
		return Config{
			Mesh: mesh, Width: tech.Width16B,
			Shortcuts: []shortcut.Edge{{From: 0, To: 99}, {From: 9, To: 90}, {From: 44, To: 55}},
		}
	}
	return []snapScenario{
		{
			name:   "baseline-mesh",
			cfg:    func() Config { return Config{Mesh: mesh, Width: tech.Width16B} },
			rate:   0.3,
			cycles: 600,
		},
		{
			name:   "static-shortcuts-adaptive",
			cfg:    func() Config { c := static(); c.AdaptiveRouting = true; return c },
			rate:   0.4,
			cycles: 600,
		},
		{
			name: "rf-multicast",
			cfg: func() Config {
				c := static()
				c.Multicast = MulticastRF
				c.RFEnabled = mesh.RFPlacement(25)
				return c
			},
			rate:   0.2,
			mcRate: 0.05,
			cycles: 600,
		},
		{
			name: "vct-multicast",
			cfg: func() Config {
				c := Config{Mesh: mesh, Width: tech.Width16B, Multicast: MulticastVCT}
				return c
			},
			rate: 0.2,
			// ~100 distinct trees over the run overflow the 64-entry
			// table, so the rerun also replays FIFO eviction.
			mcRate: 0.15,
			cycles: 600,
		},
		{
			name: "faults-and-kills",
			cfg: func() Config {
				c := static()
				c.Fault = FaultConfig{MeshBER: 1e-3, RFBER: 5e-3, Seed: 7}
				return c
			},
			rate:   0.3,
			cycles: 900,
			events: func(n *Network, now int64) {
				switch now {
				case 150:
					_ = n.KillShortcut(0)
				case 300:
					_ = n.KillMeshLink(12, 13)
				}
			},
		},
		{
			name: "multicast-band-kill",
			cfg: func() Config {
				c := static()
				c.Multicast = MulticastRF
				c.RFEnabled = mesh.RFPlacement(25)
				return c
			},
			rate:   0.2,
			mcRate: 0.08,
			cycles: 700,
			events: func(n *Network, now int64) {
				if now == 250 {
					_ = n.KillMulticastBand()
				}
			},
		},
		{
			name:    "reconfigure",
			cfg:     static,
			rate:    0.3,
			cycles:  800,
			persist: true,
		},
	}
}

// snapInject injects traffic for one cycle as a pure function of
// (seed, cycle): a fresh RNG per cycle makes the stream independent of
// run history, so it replays identically on every run.
func snapInject(n *Network, sc snapScenario, seed, now int64) {
	r := rng.New(seed ^ (now * 0x9e3779b9))
	mesh := n.Config().Mesh
	if r.Float64() < sc.rate {
		src, dst := r.Intn(mesh.N()), r.Intn(mesh.N())
		if src != dst {
			cl := Request
			if r.Float64() < 0.3 {
				cl = Data
			}
			n.Inject(Message{Src: src, Dst: dst, Class: cl, Inject: now})
		}
	}
	if sc.mcRate > 0 && r.Float64() < sc.mcRate {
		caches := mesh.Caches()
		src := caches[r.Intn(len(caches))]
		var dbv uint64
		for i := 0; i < 5; i++ {
			dbv |= 1 << uint(r.Intn(len(mesh.Cores())))
		}
		n.Inject(Message{Src: src, Class: Invalidate, Inject: now, Multicast: true, DBV: dbv})
	}
}

// snapDrive advances n until Now reaches target, replaying the
// scenario's event script and traffic stream keyed by Now. Reconfigure
// (persist scenarios) advances Now internally; the Now-keyed replay
// stays aligned across runs regardless.
func snapDrive(t *testing.T, n *Network, sc snapScenario, seed, target int64) {
	t.Helper()
	for n.Now() < target {
		now := n.Now()
		if sc.events != nil {
			sc.events(n, now)
		}
		if sc.persist && now == 200 && n.InFlight() == 0 {
			if err := n.Reconfigure([]shortcut.Edge{{From: 5, To: 94}, {From: 90, To: 9}}); err != nil {
				t.Fatalf("reconfigure: %v", err)
			}
			continue
		}
		if sc.persist && now == 200 {
			// Not quiesced this run; push the replan to the next cycle by
			// simply stepping (deterministic on every run since InFlight is
			// part of the replayed state).
		}
		snapInject(n, sc, seed, now)
		n.Step()
	}
}

// TestSnapshotRoundTripBitIdentical is the durability property a point
// relies on now that it re-runs from cycle 0 when interrupted: for every
// design point, a run cut short at an arbitrary cycle and redone on a
// fresh network finishes with a Stats snapshot (and Audit snapshot)
// bit-identical to the uninterrupted run. The cut run is then finished
// too, after the redo ran in between, so two networks of one point in
// one process share no mutable state.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	for _, sc := range snapScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 42} {
				// Uninterrupted reference.
				ref := New(sc.cfg())
				snapDrive(t, ref, sc, seed, sc.cycles)

				// Run cut short at a pseudo-random midpoint, with traffic in flight.
				cut := 50 + rng.New(seed*31+int64(len(sc.name))).Int63n(sc.cycles/2)
				a := New(sc.cfg())
				snapDrive(t, a, sc, seed, cut)

				// Redo from cycle 0 on a fresh network.
				b := New(sc.cfg())
				snapDrive(t, b, sc, seed, sc.cycles)
				if rep := b.Audit(); rep.ConservationError() != 0 || rep.CreditViolations != 0 {
					t.Fatalf("seed %d: rerun fails audit: %+v", seed, rep)
				}
				sref, sb := ref.Stats(), b.Stats()
				if !reflect.DeepEqual(sref, sb) {
					t.Fatalf("seed %d cut %d: rerun diverges from uninterrupted run:\n  uninterrupted: %+v\n  rerun:         %+v", seed, cut, sref, sb)
				}
				if ra, rb := ref.Audit(), b.Audit(); !reflect.DeepEqual(ra, rb) {
					t.Fatalf("seed %d: audit snapshots differ:\n  uninterrupted: %+v\n  rerun:         %+v", seed, ra, rb)
				}
				if ref.InFlight() != b.InFlight() {
					t.Fatalf("seed %d: in-flight mismatch after rerun: %d vs %d", seed, ref.InFlight(), b.InFlight())
				}

				// The cut run, finished after the redo, still matches.
				snapDrive(t, a, sc, seed, sc.cycles)
				if sa := a.Stats(); !reflect.DeepEqual(sref, sa) {
					t.Fatalf("seed %d cut %d: cut run, finished after the rerun, diverges:\n  uninterrupted: %+v\n  cut+finished:  %+v", seed, cut, sref, sa)
				}
			}
		})
	}
}

// TestSnapshotDrainEquivalence: a run redone from cycle 0 after an
// abandoned attempt must also drain identically, not just match under
// injection.
func TestSnapshotDrainEquivalence(t *testing.T) {
	sc := snapScenarios()[1] // static shortcuts + adaptive
	ref := New(sc.cfg())
	snapDrive(t, ref, sc, 9, 400)
	abandoned := New(sc.cfg())
	snapDrive(t, abandoned, sc, 9, 200)
	b := New(sc.cfg())
	snapDrive(t, b, sc, 9, 400)
	if !ref.Drain(100000) || !b.Drain(100000) {
		t.Fatal("networks did not drain")
	}
	if !reflect.DeepEqual(ref.Stats(), b.Stats()) {
		t.Fatalf("drained stats diverge:\n  uninterrupted: %+v\n  rerun:         %+v", ref.Stats(), b.Stats())
	}
}
