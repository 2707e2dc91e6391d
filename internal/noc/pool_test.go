package noc

import (
	"math/rand"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// collectPackets walks every live *packet reference in deterministic
// order and assigns each unique pointer an index.
func (n *Network) collectPackets() ([]*packet, map[*packet]int) {
	var table []*packet
	index := map[*packet]int{}
	add := func(p *packet) {
		if p == nil {
			return
		}
		if _, ok := index[p]; ok {
			return
		}
		index[p] = len(table)
		table = append(table, p)
	}
	for r := range n.routers {
		rs := &n.routers[r]
		for _, p := range rs.queue[rs.qhead:] {
			add(p)
		}
		for _, p := range rs.reinject[rs.rhead:] {
			add(p)
		}
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				add(vc.pkt)
			}
		}
	}
	for s := 0; s < wheelSize; s++ {
		for _, t := range n.wheel[s] {
			add(t.pkt)
		}
	}
	if n.mc != nil {
		for _, ld := range n.mc.pendingLocal {
			add(ld.pkt)
		}
	}
	return table, index
}

// assertNoPoolAliases fails the test if freelist recycling ever aliases
// a live packet: every packet reachable from live simulator state (VCs,
// NI queue live windows, wheel transfers, pending RF local deliveries)
// must not carry the pooled mark, and no pooled packet may be reachable
// live.
func assertNoPoolAliases(t *testing.T, n *Network, cycle int64) {
	t.Helper()
	live, index := n.collectPackets()
	for _, p := range live {
		if p.pooled {
			t.Fatalf("cycle %d: live packet %+v is marked pooled (recycled while referenced)", cycle, p.msg)
		}
	}
	for _, p := range n.pktPool {
		if !p.pooled {
			t.Fatalf("cycle %d: freelist entry %+v not marked pooled", cycle, p.msg)
		}
		if _, ok := index[p]; ok {
			t.Fatalf("cycle %d: freelist entry %+v still reachable from live state", cycle, p.msg)
		}
	}
}

// Freelist recycling under chaos: with corruption, duplication, credit
// leaks, watchdog recoveries and the integrity layer all churning
// packets through retire/free/reallocate, no live structure may ever
// hold a recycled packet, and the exactly-once delivery ledger must
// still close after a drain.
func TestFreelistNeverAliasesLivePackets(t *testing.T) {
	m := topology.New10x10()
	edges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget: 16, Eligible: m.ShortcutEligible,
	})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"unicast-chaos", Config{
			Mesh: m, Width: tech.Width16B, Shortcuts: edges,
			Integrity: true,
			Fault: FaultConfig{
				MeshBER: 5e-4, RFBER: 2e-3, DuplicateRate: 3e-3,
				MisrouteRate: 1e-3, MisdeliverRate: 1e-3,
				CreditLeakRate: 1e-3, Seed: 23,
			},
			Watchdog: WatchdogConfig{Enabled: true, CheckEvery: 256, StallHorizon: 2000, Grace: 256},
		}},
		{"rf-multicast", Config{
			Mesh: m, Width: tech.Width16B, Multicast: MulticastRF,
			RFEnabled: m.RFPlacement(50),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			n, err := NewChecked(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			classes := []Class{Request, Data, MemLine}
			const cycles = 4000
			for cyc := int64(0); cyc < cycles; cyc++ {
				if rng.Float64() < 0.6 {
					src, dst := rng.Intn(c.cfg.Mesh.N()), rng.Intn(c.cfg.Mesh.N())
					if src != dst {
						n.Inject(Message{Src: src, Dst: dst, Class: classes[rng.Intn(len(classes))], Inject: n.Now()})
					}
				}
				if c.cfg.Multicast == MulticastRF && cyc%31 == 5 {
					banks := c.cfg.Mesh.Caches()
					n.Inject(Message{
						Src: banks[rng.Intn(len(banks))], Class: Invalidate, Multicast: true,
						DBV: rng.Uint64() | 1, Inject: n.Now(),
					})
				}
				n.Step()
				assertNoPoolAliases(t, n, n.Now())
			}
			if !n.Drain(2_000_000) {
				t.Fatalf("drain failed, %d in flight", n.InFlight())
			}
			assertNoPoolAliases(t, n, n.Now())
			if len(n.pktPool) == 0 {
				t.Fatal("drained chaos run recycled no packets; the property was never exercised")
			}
			s := n.Stats()
			// Exactly-once ledger: every injected unicast packet was
			// ejected or declared lost — never both, never neither.
			if got := s.PacketsEjected + s.PacketsLost; got != s.PacketsInjected {
				t.Fatalf("ledger open after drain: injected %d, ejected %d + lost %d = %d",
					s.PacketsInjected, s.PacketsEjected, s.PacketsLost, got)
			}
		})
	}
}
