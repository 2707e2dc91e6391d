package noc_test

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestAdaptiveEscapeClassDrains is the regression test for the 4 B
// adaptive-routing deadlock: a head that timed out in VA and switched to
// the escape class kept its minimal-adaptive candidates, so it could
// still leave the escape routing function (entering a router on a Y link
// with X hops to go), and the escape VCs' channel dependencies cycled.
// Bit-complement at 0.03 per core saturates a 4 B mesh, so nearly every
// blocked head goes through the escape switch; with the escape class
// confined to escapeRoute the network must drain.
func TestAdaptiveEscapeClassDrains(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		m := topology.New10x10()
		n := noc.New(noc.Config{Mesh: m, Width: tech.Width4B, AdaptiveRouting: true})
		gen := traffic.NewSynthetic(m, traffic.BitComplement, 0.03, seed)
		for i := 0; i < 2000; i++ {
			gen.Tick(n.Now(), n.Inject)
			n.Step()
		}
		if !n.Drain(20_000) {
			rep := n.Audit()
			t.Errorf("seed %d: no drain within 20000 cycles: %d packets in flight, oldest head %d cycles, %d escape switches",
				seed, n.InFlight(), rep.OldestHeadAge, n.Stats().EscapeSwitches)
		}
	}
}
