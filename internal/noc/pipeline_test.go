package noc

import (
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestHeadFlitPipelineTiming traces the documented stage timing on one
// hop: head arrival t, RC t+1, VA t+2, SA t+3, next-router arrival t+5.
func TestHeadFlitPipelineTiming(t *testing.T) {
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width16B})
	src, dst := m.ID(4, 4), m.ID(6, 4) // two hops
	n.Inject(Message{Src: src, Dst: dst, Class: Request, Inject: 0})
	// After 5 cycles the head should have left the source router but not
	// yet been ejected; after the analytic total (5*(2+1)+0) = 15 plus
	// the 2-cycle ejection completion, the packet is done.
	n.Run(7)
	if got := n.Stats().PacketsEjected; got != 0 {
		t.Fatalf("packet ejected after 7 cycles, too fast")
	}
	n.Run(20)
	s := n.Stats()
	if s.PacketsEjected != 1 {
		t.Fatalf("packet not delivered")
	}
	if s.PacketLatency != 15 {
		t.Errorf("latency = %d, want 15", s.PacketLatency)
	}
}

// TestBodyFlitsStreamBackToBack: at zero load, consecutive flits of one
// packet eject on consecutive cycles (full switch throughput).
func TestBodyFlitsStreamBackToBack(t *testing.T) {
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width16B})
	src, dst := m.ID(2, 2), m.ID(2, 6)
	n.Inject(Message{Src: src, Dst: dst, Class: MemLine, Inject: 0}) // 9 flits
	if !n.Drain(10000) {
		t.Fatal("no drain")
	}
	s := n.Stats()
	// Tail latency = head latency + (flits-1): exactly 8 cycles apart.
	want := int64(5*(4+1) + 9 - 1)
	if s.PacketLatency != want {
		t.Errorf("tail latency = %d, want %d", s.PacketLatency, want)
	}
	// Per-flit latencies: each flit sees the same network residence, so
	// the flit-latency sum is 9x the head's residency.
	if s.FlitLatency != 9*int64(5*(4+1)+2-2) {
		t.Errorf("flit latency sum = %d, want %d", s.FlitLatency, 9*int64(25))
	}
}

// TestVAStallDelaysOnlyHead: when all normal VCs at the next hop are
// held by another packet, the head waits in VA but the pipeline recovers
// at full speed once a VC frees.
func TestVAStallDelaysOnlyHead(t *testing.T) {
	m := topology.New10x10()
	// One normal VC per port: the second packet must wait for the first
	// to release the downstream VC.
	n := New(Config{Mesh: m, Width: tech.Width16B, VCsPerClass: 1, EscapeTimeout: 1000})
	src, dst := m.ID(1, 1), m.ID(5, 1)
	n.Inject(Message{Src: src, Dst: dst, Class: MemLine, Inject: 0})
	n.Inject(Message{Src: src, Dst: dst, Class: MemLine, Inject: 0})
	if !n.Drain(20000) {
		t.Fatal("no drain")
	}
	s := n.Stats()
	if s.PacketsEjected != 2 {
		t.Fatalf("ejected %d, want 2", s.PacketsEjected)
	}
	// The second packet's latency exceeds the first's by at least the
	// wormhole occupancy of a 9-flit packet.
	first := int64(5*(4+1) + 8)
	if s.PacketLatency <= 2*first {
		t.Errorf("combined latency %d implies no VA serialization (first=%d)",
			s.PacketLatency, first)
	}
	if s.EscapeSwitches != 0 {
		t.Errorf("escape switched %d times despite huge timeout", s.EscapeSwitches)
	}
}

// TestWireShortcutRouteTableUsesShortcut: wire shortcuts appear in the
// routing tables exactly like RF ones (only the link latency differs).
func TestWireShortcutRouteTableUsesShortcut(t *testing.T) {
	m := topology.New10x10()
	edges := []shortcut.Edge{{From: m.ID(2, 2), To: m.ID(7, 7)}}
	n := New(Config{Mesh: m, Width: tech.Width16B, Shortcuts: edges, WireShortcuts: true})
	n.Inject(Message{Src: m.ID(2, 2), Dst: m.ID(7, 7), Class: Request, Inject: 0})
	if !n.Drain(10000) {
		t.Fatal("no drain")
	}
	s := n.Stats()
	if s.HopSum != 1 {
		t.Errorf("hops = %d, want 1 (wire shortcut)", s.HopSum)
	}
	if s.WireShortcutFlitMM == 0 {
		t.Error("wire shortcut carried no accounted flit-mm")
	}
}

// TestReconfigureClearsOldShortcuts: after retuning to a different set,
// the old bands must no longer exist.
func TestReconfigureClearsOldShortcuts(t *testing.T) {
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width16B,
		Shortcuts: []shortcut.Edge{{From: m.ID(1, 1), To: m.ID(8, 8)}}})
	if err := n.Reconfigure([]shortcut.Edge{{From: m.ID(8, 1), To: m.ID(1, 8)}}); err != nil {
		t.Fatal(err)
	}
	// Traffic on the old pair must go over the mesh now.
	before := n.Stats().RFShortcutBits
	n.Inject(Message{Src: m.ID(1, 1), Dst: m.ID(8, 8), Class: Request, Inject: n.Now()})
	if !n.Drain(10000) {
		t.Fatal("no drain")
	}
	if got := n.Stats().RFShortcutBits - before; got != 0 {
		t.Errorf("old shortcut still live: %d RF bits", got)
	}
	// And the new pair uses RF.
	before = n.Stats().RFShortcutBits
	n.Inject(Message{Src: m.ID(8, 1), Dst: m.ID(1, 8), Class: Request, Inject: n.Now()})
	if !n.Drain(10000) {
		t.Fatal("no drain")
	}
	if got := n.Stats().RFShortcutBits - before; got == 0 {
		t.Error("new shortcut unused")
	}
}

func TestReconfigurationCycles(t *testing.T) {
	// 100-router mesh: 99 cycles, exactly the paper's figure.
	if got := ReconfigurationCycles(100); got != 99 {
		t.Errorf("reconfiguration = %d cycles, want 99", got)
	}
	if got := ReconfigurationCycles(1); got != 0 {
		t.Errorf("single-router reconfiguration = %d, want 0", got)
	}
}

// TestReconfigureChargesTableUpdate: each Reconfigure on a running
// network steps it idle for the table-update cost and accounts it in
// Stats, 99 cycles per retune on the 100-router mesh.
func TestReconfigureChargesTableUpdate(t *testing.T) {
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width16B})
	plans := [][]shortcut.Edge{
		{{From: m.ID(1, 1), To: m.ID(8, 8)}},
		{{From: m.ID(8, 1), To: m.ID(1, 8)}},
	}
	for i, plan := range plans {
		n.Inject(Message{Src: m.ID(1, 1), Dst: m.ID(8, 8), Class: Data, Inject: n.Now()})
		if !n.Drain(10000) {
			t.Fatal("no drain")
		}
		before := n.Now()
		if err := n.Reconfigure(plan); err != nil {
			t.Fatal(err)
		}
		if got := n.Now() - before; got != 99 {
			t.Errorf("reconfigure %d advanced the clock %d cycles, want 99", i, got)
		}
	}
	s := n.Stats()
	if s.Reconfigurations != 2 {
		t.Fatalf("reconfigurations = %d, want 2", s.Reconfigurations)
	}
	if want := ReconfigurationCycles(m.N()) * s.Reconfigurations; s.ReconfigUpdateCycles != want {
		t.Errorf("update cycles = %d, want %d", s.ReconfigUpdateCycles, want)
	}
}

// TestLocalSpeedupBoundsEjection: at 4B the local channel moves up to 4
// flits per cycle; a burst of single-flit... multi-packet convergence at
// one router must eject at more than 1 flit/cycle.
func TestLocalSpeedupBoundsEjection(t *testing.T) {
	m := topology.New10x10()
	n := New(Config{Mesh: m, Width: tech.Width4B})
	dst := m.ID(5, 5)
	for _, c := range []topology.Coord{{X: 5, Y: 2}, {X: 5, Y: 8}, {X: 2, Y: 5}, {X: 8, Y: 5}} {
		n.Inject(Message{Src: m.ID(c.X, c.Y), Dst: dst, Class: MemLine, Inject: 0})
	}
	if !n.Drain(20000) {
		t.Fatal("no drain")
	}
	s := n.Stats()
	if s.PacketsEjected != 4 {
		t.Fatalf("ejected %d, want 4", s.PacketsEjected)
	}
	// All four 33-flit packets arrive over disjoint approaches; with
	// 4-flit/cycle ejection they finish within a whisker of the
	// zero-load single-packet time, far below the serialized bound.
	perPacket := s.PacketLatency / 4
	single := int64(5*(3+1) + 32)
	if perPacket > single+40 {
		t.Errorf("avg packet latency %d suggests ejection serialization (single=%d)",
			perPacket, single)
	}
}
