package core

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestControllerReconfigureFlow(t *testing.T) {
	m := topology.New10x10()
	c := NewController(m, tech.Width4B, 50)
	if got := c.Budget(); got != 16 {
		t.Fatalf("budget = %d, want 16", got)
	}
	profile := traffic.NewProbabilistic(m, traffic.Hotspot1, 0, 1)
	st, err := c.ReconfigureForWorkload(profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shortcuts) != 16 {
		t.Errorf("shortcuts = %d, want 16", len(st.Shortcuts))
	}
	if st.UpdateCycles != 99 {
		t.Errorf("update cycles = %d, want 99", st.UpdateCycles)
	}
	if st.Retunes != 32 {
		t.Errorf("initial retunes = %d, want 32 (16 Tx + 16 Rx from cold)", st.Retunes)
	}
	if err := st.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// The config must actually simulate.
	n := noc.New(st.Config)
	gen := traffic.NewProbabilistic(m, traffic.Hotspot1, 0, 1)
	for now := int64(0); now < 4000; now++ {
		gen.Tick(now, n.Inject)
		n.Step()
	}
	if !n.Drain(200000) {
		t.Fatal("controller config did not drain")
	}
	if n.Stats().RFShortcutBits == 0 {
		t.Error("adaptive shortcuts unused")
	}
}

func TestControllerTracksRetunesAcrossWorkloads(t *testing.T) {
	m := topology.New10x10()
	c := NewController(m, tech.Width16B, 50)
	if _, err := c.ReconfigureForWorkload(traffic.NewProbabilistic(m, traffic.Hotspot1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	st2, err := c.ReconfigureForWorkload(traffic.NewProbabilistic(m, traffic.UniDF, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Retunes == 0 {
		t.Error("switching workloads should retune some mixers")
	}
	s := c.Stats()
	if s.Reconfigurations != 2 {
		t.Errorf("reconfigurations = %d, want 2", s.Reconfigurations)
	}
	if s.TotalUpdateCycles != 198 {
		t.Errorf("total update cycles = %d, want 198", s.TotalUpdateCycles)
	}
	// Reconfiguring for the same profile twice changes nothing.
	freq := traffic.FrequencyMatrix(traffic.NewProbabilistic(m, traffic.UniDF, 0, 1), m.N(), c.ProfileCycles)
	a, err := c.ReconfigureForProfile(freq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.ReconfigureForProfile(freq)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Shortcuts) != len(b.Shortcuts) {
		t.Fatal("same profile selected different sizes")
	}
	if b.Retunes != 0 {
		t.Errorf("identical reconfiguration retuned %d mixers", b.Retunes)
	}
}

func TestControllerMulticastReservesBand(t *testing.T) {
	m := topology.New10x10()
	c := NewController(m, tech.Width4B, 50)
	c.Multicast = true
	if got := c.Budget(); got != 15 {
		t.Fatalf("MC+SC budget = %d, want 15", got)
	}
	st, err := c.ReconfigureForWorkload(traffic.NewProbabilistic(m, traffic.Hotspot2, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shortcuts) != 15 {
		t.Errorf("shortcuts = %d, want 15", len(st.Shortcuts))
	}
	if len(st.Plan.Bands) != 16 {
		t.Errorf("bands = %d, want 16 (15 shortcuts + multicast)", len(st.Plan.Bands))
	}
	if st.Config.Multicast != noc.MulticastRF {
		t.Error("config should enable RF multicast")
	}
	if len(st.Config.MulticastReceivers) != 35 {
		t.Errorf("multicast receivers = %d, want 35", len(st.Config.MulticastReceivers))
	}
}

func TestControllerNarrowBands(t *testing.T) {
	m := topology.New10x10()
	c := NewController(m, tech.Width4B, 100)
	c.ShortcutWidthBytes = 8
	if got := c.Budget(); got != 32 {
		t.Fatalf("8B-band budget = %d, want 32", got)
	}
	st, err := c.ReconfigureForWorkload(traffic.NewProbabilistic(m, traffic.Uniform, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shortcuts) == 0 || len(st.Shortcuts) > 32 {
		t.Errorf("shortcuts = %d, want in (0, 32]", len(st.Shortcuts))
	}
	if st.Plan.AggregateBytes() > tech.RFIAggregateBytes {
		t.Error("plan exceeds aggregate bandwidth")
	}
}

func TestNetworkReconfigureRejectsInFlight(t *testing.T) {
	m := topology.New10x10()
	n := noc.New(noc.Config{Mesh: m, Width: tech.Width16B})
	n.Inject(noc.Message{Src: m.ID(1, 1), Dst: m.ID(8, 8), Class: noc.Data, Inject: 0})
	n.Step()
	if err := n.Reconfigure(nil); err == nil {
		t.Error("reconfigure with in-flight traffic should fail")
	}
	if !n.Drain(10000) {
		t.Fatal("no drain")
	}
	if err := n.Reconfigure(nil); err != nil {
		t.Errorf("drained reconfigure failed: %v", err)
	}
}

func TestNetworkReconfigureSwapsShortcuts(t *testing.T) {
	m := topology.New10x10()
	n := noc.New(noc.Config{Mesh: m, Width: tech.Width16B})
	send := func() int64 {
		before := n.Stats().RFShortcutBits
		n.Inject(noc.Message{Src: m.ID(1, 1), Dst: m.ID(8, 8), Class: noc.Request, Inject: n.Now()})
		if !n.Drain(10000) {
			t.Fatal("no drain")
		}
		return n.Stats().RFShortcutBits - before
	}
	if bits := send(); bits != 0 {
		t.Fatalf("baseline used RF: %d bits", bits)
	}
	if err := n.Reconfigure([]shortcut.Edge{{From: m.ID(1, 1), To: m.ID(8, 8)}}); err != nil {
		t.Fatal(err)
	}
	if bits := send(); bits == 0 {
		t.Error("reconfigured shortcut unused")
	}
}
