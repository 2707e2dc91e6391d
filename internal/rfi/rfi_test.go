package rfi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

func edges(n int) []shortcut.Edge {
	out := make([]shortcut.Edge, n)
	for i := range out {
		out[i] = shortcut.Edge{From: i, To: 50 + i}
	}
	return out
}

func TestPlanFullBudget(t *testing.T) {
	// 16 shortcuts x 16 B fill the 256 B aggregate exactly.
	p, err := NewPlan(edges(16), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.AggregateBytes(); got != tech.RFIAggregateBytes {
		t.Errorf("aggregate = %d, want %d", got, tech.RFIAggregateBytes)
	}
	if p.Lines != tech.RFITransmissionLines {
		t.Errorf("lines = %d, want %d (the paper's 43)", p.Lines, tech.RFITransmissionLines)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanOverBudgetRejected(t *testing.T) {
	if _, err := NewPlan(edges(17), 16, nil); err == nil {
		t.Error("17 x 16B should exceed the 256B aggregate")
	}
	// 16 shortcuts plus a multicast band also exceed it; 15+MC fits.
	if _, err := NewPlan(edges(16), 16, []int{1, 2}); err == nil {
		t.Error("16 shortcuts + multicast should exceed the aggregate")
	}
	p, err := NewPlan(edges(15), 16, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bands) != 16 {
		t.Errorf("bands = %d, want 16 (15 shortcuts + 1 multicast)", len(p.Bands))
	}
	mc := p.Bands[15]
	if !mc.Multicast || len(mc.Rx) != 3 || mc.Tx != -1 {
		t.Errorf("multicast band malformed: %+v", mc)
	}
}

func TestPlanMatchesPaperMCSC(t *testing.T) {
	// The paper's MC+SC configuration: 15 adaptive shortcuts and 35
	// multicast receivers on the 50-AP placement.
	m := topology.New10x10()
	aps := m.RFPlacement(50)
	sc := edges(15)
	var rx []int
	taken := map[int]bool{}
	for _, e := range sc {
		taken[e.To] = true
	}
	for _, id := range aps {
		if !taken[id] {
			rx = append(rx, id)
		}
	}
	p, err := NewPlan(sc, 16, rx)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDoubleTuning(t *testing.T) {
	p, err := NewPlan([]shortcut.Edge{{From: 1, To: 2}, {From: 3, To: 4}}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Bands[1].Tx = 1 // same Tx as band 0
	if err := p.Validate(); err == nil {
		t.Error("duplicate transmitter not caught")
	}
	p, _ = NewPlan([]shortcut.Edge{{From: 1, To: 2}, {From: 3, To: 4}}, 16, nil)
	p.Bands[1].Rx = []int{2}
	if err := p.Validate(); err == nil {
		t.Error("duplicate receiver not caught")
	}
}

func TestValidateReportsAllViolations(t *testing.T) {
	p, err := NewPlan([]shortcut.Edge{{From: 1, To: 2}, {From: 3, To: 4}, {From: 5, To: 6}}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Bands[1].Tx = 1        // duplicates band 0's transmitter
	p.Bands[2].Rx = []int{2} // duplicates band 0's receiver
	err = p.Validate()
	if err == nil {
		t.Fatal("two violations not caught")
	}
	for _, want := range []string{
		"router 1 transmits on bands 0 and 1",
		"router 2 receives on bands 0 and 2",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
}

func TestValidateOverflowBreakdown(t *testing.T) {
	// Hand-build an over-budget plan (NewPlan refuses to) and check the
	// overflow error attributes demand to the unicast and multicast band
	// groups separately.
	p := &Plan{
		Bands: []Band{
			{Index: 0, WidthBytes: 16, Tx: 1, Rx: []int{2}},
			{Index: 1, WidthBytes: 16, Tx: 3, Rx: []int{4}},
			{Index: 2, WidthBytes: 16, Multicast: true, Tx: -1, Rx: []int{5, 6}},
		},
		Lines: tech.RFITransmissionLines + 5,
	}
	err := p.Validate()
	if err == nil {
		t.Fatal("line overflow not caught")
	}
	for _, want := range []string{
		fmt.Sprintf("needs %d lines, bundle has %d", p.Lines, tech.RFITransmissionLines),
		"unicast: 2 bands, 32 B/cycle",
		"multicast: 1 bands, 16 B/cycle",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
}

func TestBandCarriersDistinct(t *testing.T) {
	p, _ := NewPlan(edges(16), 16, nil)
	seen := map[float64]bool{}
	for _, b := range p.Bands {
		if seen[b.CarrierGHz] {
			t.Fatalf("carrier %v GHz reused", b.CarrierGHz)
		}
		seen[b.CarrierGHz] = true
		if b.BandwidthGbps() != 256 {
			t.Errorf("band bandwidth = %v Gbps, want 256", b.BandwidthGbps())
		}
	}
}

func TestTuningAndRetunes(t *testing.T) {
	p1, _ := NewPlan([]shortcut.Edge{{From: 1, To: 2}, {From: 3, To: 4}}, 16, nil)
	p2, _ := NewPlan([]shortcut.Edge{{From: 1, To: 2}, {From: 5, To: 6}}, 16, nil)
	t1, t2 := TuningFor(p1), TuningFor(p2)
	if t1.TxBand[1] != 0 || t1.RxBand[4] != 1 {
		t.Fatalf("tuning wrong: %+v", t1)
	}
	// Shortcut (1,2) is unchanged; (3,4) -> (5,6) retunes one Tx off, one
	// Tx on, one Rx off, one Rx on = 4 mixer changes.
	if got := Retunes(t1, t2); got != 4 {
		t.Errorf("retunes = %d, want 4", got)
	}
	if got := Retunes(t1, t1); got != 0 {
		t.Errorf("self retunes = %d, want 0", got)
	}
}

func TestNarrowBandsAllowMore(t *testing.T) {
	// The width ablation: 8 B bands allow 32 shortcuts in the aggregate.
	p, err := NewPlan(edges(32), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.AggregateBytes(); got != tech.RFIAggregateBytes {
		t.Errorf("aggregate = %d, want %d", got, tech.RFIAggregateBytes)
	}
	if _, err := NewPlan(edges(33), 8, nil); err == nil {
		t.Error("33 x 8B should exceed the aggregate")
	}
}
