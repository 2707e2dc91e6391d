package noc

import (
	"math/rand"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// benchStep measures cycles/second of the simulator core under steady
// random load for a configuration. ReportAllocs is the zero-alloc
// gate: with the packet freelist and hoisted scratch, steady-state
// stepping must run at 0 allocs/op (cmd/bench enforces it).
func benchStep(b *testing.B, cfg Config, rate float64) {
	n := New(cfg)
	rng := rand.New(rand.NewSource(1))
	// Warm to steady state (and populate the packet freelist).
	for i := 0; i < 2000; i++ {
		stepOnce(n, rng, rate)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepOnce(n, rng, rate)
	}
	b.StopTimer()
	if !n.Drain(5_000_000) {
		b.Fatal("drain failed")
	}
}

func stepOnce(n *Network, rng *rand.Rand, rate float64) {
	if rng.Float64() < rate {
		src, dst := rng.Intn(100), rng.Intn(100)
		if src != dst {
			n.Inject(Message{Src: src, Dst: dst, Class: Data, Inject: n.Now()})
		}
	}
	n.Step()
}

func BenchmarkStepBaseline16B(b *testing.B) {
	benchStep(b, Config{Mesh: topology.New10x10(), Width: tech.Width16B}, 0.8)
}

func BenchmarkStepBaseline4B(b *testing.B) {
	benchStep(b, Config{Mesh: topology.New10x10(), Width: tech.Width4B}, 0.8)
}

func BenchmarkStepShortcuts4B(b *testing.B) {
	m := topology.New10x10()
	edges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget: 16, Eligible: m.ShortcutEligible,
	})
	benchStep(b, Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges}, 0.8)
}

func BenchmarkStepAdaptiveRouting4B(b *testing.B) {
	benchStep(b, Config{Mesh: topology.New10x10(), Width: tech.Width4B, AdaptiveRouting: true}, 0.8)
}

func BenchmarkStepIdle(b *testing.B) {
	// Step walks only routers with active VCs, so an idle cycle visits
	// no router and should cost next to nothing.
	benchStep(b, Config{Mesh: topology.New10x10(), Width: tech.Width16B}, 0.0)
}

func BenchmarkBuildRoutes(b *testing.B) {
	m := topology.New10x10()
	edges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget: 16, Eligible: m.ShortcutEligible,
	})
	cfg := Config{Mesh: m, Width: tech.Width16B, Shortcuts: edges}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New(cfg)
		if n.routes == nil {
			b.Fatal("no routes")
		}
	}
}

func BenchmarkInjectEject(b *testing.B) {
	// Round-trip cost of one short message on an idle mesh.
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width16B})
	src, dst := m.ID(4, 4), m.ID(5, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Inject(Message{Src: src, Dst: dst, Class: Request, Inject: n.Now()})
		for j := 0; j < 12; j++ {
			n.Step()
		}
	}
	b.StopTimer()
	if !n.Drain(100000) {
		b.Fatal("drain failed")
	}
}
