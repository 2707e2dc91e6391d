package noc

import (
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

func TestEscapeSwitchTriggersUnderBlockage(t *testing.T) {
	// Force VA failures: tiny VC budget and a flood toward one router via
	// the shortcut path. Escape switches must occur, and everything
	// still delivers.
	m := topology.New10x10()
	n := New(Config{
		Mesh: m, Width: tech.Width4B,
		VCsPerClass: 1, BufDepth: 2, EscapeTimeout: 4,
		Shortcuts: []shortcut.Edge{{From: m.ID(1, 1), To: m.ID(8, 8)}},
	})
	injected := 0
	for i := 0; i < 2000; i++ {
		n.Inject(Message{Src: m.ID(1, 1), Dst: m.ID(9, 8), Class: MemLine, Inject: n.Now()})
		n.Inject(Message{Src: m.ID(0, 1), Dst: m.ID(9, 8), Class: MemLine, Inject: n.Now()})
		injected += 2
		n.Step()
	}
	if !n.Drain(2000000) {
		t.Fatalf("stuck with %d in flight", n.InFlight())
	}
	s := n.Stats()
	if s.PacketsEjected != int64(injected) {
		t.Errorf("ejected %d, want %d", s.PacketsEjected, injected)
	}
	if s.EscapeSwitches == 0 {
		t.Error("expected escape-VC switches under single-VC blockage")
	}
}

func TestMulticastEpochArbitrationRotates(t *testing.T) {
	// Two clusters with pending multicasts must share the band.
	m := topology.New10x10()
	cfg := Config{
		Mesh: m, Width: tech.Width16B,
		Multicast: MulticastRF, RFEnabled: m.RFPlacement(50),
	}
	n := New(cfg)
	dbv := uint64(1<<3 | 1<<40 | 1<<60)
	// Saturate two clusters' central banks with multicasts.
	for i := 0; i < 20; i++ {
		n.Inject(Message{Src: m.CentralBank(0), Class: Invalidate, Multicast: true, DBV: dbv, Inject: n.Now()})
		n.Inject(Message{Src: m.CentralBank(3), Class: Fill, Multicast: true, DBV: dbv, Inject: n.Now()})
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatal("no drain")
	}
	s := n.Stats()
	want := int64(40 * DBVCount(dbv))
	if s.MulticastDeliveries != want {
		t.Errorf("deliveries = %d, want %d", s.MulticastDeliveries, want)
	}
}

func TestMulticastForwardToCentralBank(t *testing.T) {
	// A non-central cache bank's multicast first crosses the mesh to its
	// cluster's central bank.
	m := topology.New10x10()
	cfg := Config{
		Mesh: m, Width: tech.Width16B,
		Multicast: MulticastRF, RFEnabled: m.RFPlacement(50),
	}
	n := New(cfg)
	var src int
	for _, id := range m.CacheClusters()[0] {
		if id != m.CentralBank(0) {
			src = id
			break
		}
	}
	n.Inject(Message{Src: src, Class: Invalidate, Multicast: true, DBV: 1 << 10, Inject: 0})
	if !n.Drain(20000) {
		t.Fatal("no drain")
	}
	s := n.Stats()
	if s.MulticastDeliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", s.MulticastDeliveries)
	}
	// The forward hop used the mesh (some mesh flit-hops on a cluster
	// where src != central).
	if s.MeshFlitHops == 0 {
		t.Error("expected mesh traffic for the forward to the central bank")
	}
}

func TestVCTSetupPenaltySlowsFirstSend(t *testing.T) {
	m := topology.New10x10()
	dbv := uint64(1<<12 | 1<<45)
	send := func(n *Network) float64 {
		before := n.Stats()
		n.Inject(Message{Src: m.Caches()[2], Class: Fill, Multicast: true, DBV: dbv, Inject: n.Now()})
		if !n.Drain(20000) {
			t.Fatal("no drain")
		}
		after := n.Stats()
		return float64(after.MulticastLatency-before.MulticastLatency) /
			float64(after.MulticastDeliveries-before.MulticastDeliveries)
	}
	cfg := Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastVCT}
	n := New(cfg)
	first := send(n)
	second := send(n)
	if second >= first {
		t.Errorf("tree reuse (%.1f) should beat setup (%.1f)", second, first)
	}
	s := n.Stats()
	if s.VCTMisses != 1 || s.VCTHits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.VCTHits, s.VCTMisses)
	}
}

func TestVCTTableEviction(t *testing.T) {
	m := topology.New10x10()
	cfg := Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastVCT}
	n := New(cfg)
	send := func(dbv uint64) {
		n.Inject(Message{Src: m.Caches()[0], Class: Invalidate, Multicast: true, DBV: dbv, Inject: n.Now()})
		if !n.Drain(20000) {
			t.Fatal("no drain")
		}
	}
	// One tree more than the table holds: each is a miss, and the last
	// evicts the first.
	for i := 1; i <= vctTableSize+1; i++ {
		send(uint64(i) << 1)
	}
	send(1 << 1) // miss again: the first tree was evicted
	s := n.Stats()
	if want := int64(vctTableSize + 2); s.VCTMisses != want || s.VCTHits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/%d with FIFO eviction", s.VCTHits, s.VCTMisses, want)
	}
}

func TestWormholeBackpressure(t *testing.T) {
	// With 1 VC and depth 2, a long message through a shared corridor
	// must backpressure the NI: injection stalls rather than overflowing.
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width4B, VCsPerClass: 1, BufDepth: 2})
	for i := 0; i < 30; i++ {
		n.Inject(Message{Src: m.ID(0, 0), Dst: m.ID(9, 0), Class: MemLine, Inject: n.Now()})
	}
	// All 30 x 33-flit messages share one VC chain; no panic, full
	// delivery.
	if !n.Drain(2000000) {
		t.Fatalf("stuck with %d in flight", n.InFlight())
	}
	s := n.Stats()
	if s.PacketsEjected != 30 {
		t.Errorf("ejected %d, want 30", s.PacketsEjected)
	}
	if s.FlitsEjected != 30*33 {
		t.Errorf("flits = %d, want %d", s.FlitsEjected, 30*33)
	}
}

func TestObservedFrequencyMatchesInjection(t *testing.T) {
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width16B})
	n.Inject(Message{Src: 5, Dst: 50, Class: Request, Inject: 0})
	n.Inject(Message{Src: 5, Dst: 50, Class: Data, Inject: 0})
	n.Inject(Message{Src: 7, Dst: 3, Class: Request, Inject: 0})
	freq := n.ObservedFrequency()
	if freq[5][50] != 2 || freq[7][3] != 1 {
		t.Errorf("freq = %v / %v", freq[5][50], freq[7][3])
	}
	n.ResetObservedFrequency()
	freq = n.ObservedFrequency()
	if freq[5] != nil {
		t.Error("reset did not clear counters")
	}
}
