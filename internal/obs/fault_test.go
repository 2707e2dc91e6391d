package obs

import (
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestFaultRecorderMetrics drives the recorder with a synthetic event
// stream and checks every derived metric (retransmission rate, MTTR, the
// pre/post-fault latency split) and that Render takes the raw counts
// from the Stats it is given.
func TestFaultRecorderMetrics(t *testing.T) {
	r := NewFaultRecorder()
	// The counters the event stream below implies, with three crossbar
	// traversals: two link-crossing flits and one local ejection.
	s := noc.Stats{FlitsCorrupted: 1, Retransmits: 1, LinkFailures: 2, Reconfigurations: 1,
		RouterTraversals: 3, FlitsEjected: 1}

	if got := r.RetransmissionRate(s); got != 0.5 {
		t.Errorf("retransmission rate = %v, want 0.5 (1 retransmit / 2 link flits)", got)
	}

	// Delivered before any failure: counts toward the pre-fault mean.
	r.PacketDelivered(noc.Message{Inject: 10}, 30, 0)

	// Failures at 100 and 200, repair (replan) at 260.
	r.LinkFailed(0, noc.PortRF, 100)
	r.LinkFailed(1, noc.PortRF, 200)

	// Injected between the failures: belongs to neither window.
	r.PacketDelivered(noc.Message{Inject: 150}, 180, 0)
	// Injected after the last failure: post-fault.
	r.PacketDelivered(noc.Message{Inject: 220}, 260, 0)

	r.Replanned(3, 260)
	// MTTR covers the oldest open fault (cycle 100) to the replan (260).
	if got := r.MTTR(); got != 160 {
		t.Errorf("MTTR = %v, want 160", got)
	}

	pre, post, delta, ok := r.LatencyDelta()
	if !ok {
		t.Fatal("latency delta unavailable despite traffic on both sides")
	}
	if pre != 20 || post != 40 || delta != 20 {
		t.Errorf("latency delta pre=%v post=%v delta=%v, want 20/40/+20", pre, post, delta)
	}

	out := r.Render(s)
	for _, want := range []string{"corrupted 1, retransmits 1 (rate 0.5/flit)", "link failures 2", "replans 1", "MTTR 160", "delta +20.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestFaultRecorderAvailability exercises the band-cycle accounting
// against a real network config: with one of two shortcut bands dead for
// half the observed cycles, availability is 0.75.
func TestFaultRecorderAvailability(t *testing.T) {
	m := topology.New(6, 6)
	n := noc.New(noc.Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 2}),
	})

	r := NewFaultRecorder()
	if got := r.Availability(); got != 1 {
		t.Errorf("availability before any cycle = %v, want 1", got)
	}
	for i := 0; i < 10; i++ {
		r.CycleEnd(n)
	}
	r.LinkFailed(5, noc.PortRF, 10)
	for i := 0; i < 10; i++ {
		r.CycleEnd(n)
	}
	if got := r.Availability(); got != 0.75 {
		t.Errorf("availability = %v, want 0.75 (1 of 2 bands dead for 10 of 20 cycles)", got)
	}

	// A replan revives the shortcut bands; availability recovers.
	r.Replanned(2, 20)
	for i := 0; i < 20; i++ {
		r.CycleEnd(n)
	}
	if got := r.Availability(); got != 0.875 {
		t.Errorf("availability after replan = %v, want 0.875", got)
	}
}
