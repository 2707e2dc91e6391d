package obs

import (
	"fmt"

	"repro/internal/noc"
)

// FaultRecorder is an Observer that condenses the fault-injection event
// stream into the recovery metrics noc.Stats does not hold:
//
//   - MTTR: mean cycles from a link failure to the replan that restores
//     the overlay (faults still unrepaired when the run ends are not
//     counted);
//   - RF band availability: the fraction of band-cycles the overlay's
//     bands (shortcuts plus the multicast band) were alive;
//   - the post-fault latency delta: mean packet latency after the last
//     failure versus before the first, isolating what degradation
//     actually cost delivered traffic.
//
// The raw counts (corruptions, retransmissions, link failures, degraded
// reroutes, replans) are noc.Stats counters; Render takes the run's
// Stats for them and for the retransmission rate (link-layer
// retransmissions per flit crossing a link — the fault model's
// effective overhead). Memory is O(1); attach alongside an Injector
// (internal/fault) or any other kill site.
type FaultRecorder struct {
	noc.BaseObserver

	// MTTR bookkeeping: openFaultAt is the cycle of the oldest failure
	// not yet covered by a replan (-1 when none).
	openFaultAt int64
	repairSum   int64
	repairs     int64

	// Band availability: dead shortcut bands accumulate per cycle until
	// a replan restores the overlay; a dead multicast band never comes
	// back.
	cycles         int64
	deadBandCycles int64
	deadShortcuts  int
	mcDead         bool
	totalBands     int

	// Latency before the first failure vs after the last one.
	firstFailureAt int64
	lastFailureAt  int64
	preSum         int64
	preCount       int64
	postSum        int64
	postCount      int64
}

// NewFaultRecorder returns an empty recorder.
func NewFaultRecorder() *FaultRecorder {
	return &FaultRecorder{openFaultAt: -1, firstFailureAt: -1, lastFailureAt: -1}
}

// LinkFailed implements noc.Observer.
func (r *FaultRecorder) LinkFailed(router, outPort int, now int64) {
	if r.openFaultAt < 0 {
		r.openFaultAt = now
	}
	if r.firstFailureAt < 0 {
		r.firstFailureAt = now
	}
	r.lastFailureAt = now
	if router < 0 {
		r.mcDead = true
	} else if outPort == noc.PortRF {
		r.deadShortcuts++
	}
}

// Replanned implements noc.Observer: the overlay's shortcut bands are
// restored (the dead multicast band stays dead) and any open fault
// window closes.
func (r *FaultRecorder) Replanned(_ int, now int64) {
	r.deadShortcuts = 0
	if r.openFaultAt >= 0 {
		r.repairSum += now - r.openFaultAt
		r.repairs++
		r.openFaultAt = -1
	}
}

// PacketDelivered implements noc.Observer.
func (r *FaultRecorder) PacketDelivered(msg noc.Message, at int64, _ int) {
	r.observeLatency(msg, at)
}

// MulticastDelivered implements noc.Observer.
func (r *FaultRecorder) MulticastDelivered(msg noc.Message, at int64) {
	r.observeLatency(msg, at)
}

func (r *FaultRecorder) observeLatency(msg noc.Message, at int64) {
	lat := at - msg.Inject
	switch {
	case r.firstFailureAt < 0 || msg.Inject < r.firstFailureAt:
		r.preSum += lat
		r.preCount++
	case msg.Inject >= r.lastFailureAt:
		r.postSum += lat
		r.postCount++
	}
}

// CycleEnd implements noc.Observer: accumulates band-availability time.
func (r *FaultRecorder) CycleEnd(n *noc.Network) {
	if r.totalBands == 0 {
		cfg := n.Config()
		r.totalBands = len(cfg.Shortcuts)
		if cfg.Multicast == noc.MulticastRF {
			r.totalBands++
		}
	}
	r.cycles++
	dead := r.deadShortcuts
	if r.mcDead {
		dead++
	}
	r.deadBandCycles += int64(dead)
}

// RetransmissionRate returns s.Retransmits, the link-layer
// retransmissions, per flit sent over a link: every crossbar traversal
// but the ejections (0 when nothing was sent).
func (r *FaultRecorder) RetransmissionRate(s noc.Stats) float64 {
	sent := s.RouterTraversals - s.FlitsEjected
	if sent == 0 {
		return 0
	}
	return float64(s.Retransmits) / float64(sent)
}

// MTTR returns the mean cycles from a link failure to the replan that
// repaired the overlay, over closed fault windows (0 when none closed).
func (r *FaultRecorder) MTTR() float64 {
	if r.repairs == 0 {
		return 0
	}
	return float64(r.repairSum) / float64(r.repairs)
}

// Availability returns the fraction of band-cycles the RF overlay's
// bands were alive (1 for a design with no bands, or before any cycles
// elapsed).
func (r *FaultRecorder) Availability() float64 {
	total := int64(r.totalBands) * r.cycles
	if total == 0 {
		return 1
	}
	return 1 - float64(r.deadBandCycles)/float64(total)
}

// LatencyDelta returns mean packet latencies for traffic injected before
// the first failure and after the last one, and their difference — the
// steady-state cost of running degraded. Counts are zero when no failure
// occurred or no traffic straddled it.
func (r *FaultRecorder) LatencyDelta() (pre, post, delta float64, ok bool) {
	if r.preCount == 0 || r.postCount == 0 {
		return 0, 0, 0, false
	}
	pre = float64(r.preSum) / float64(r.preCount)
	post = float64(r.postSum) / float64(r.postCount)
	return pre, post, post - pre, true
}

// Render reports the recovery metrics, taking the raw counts from s (the
// Stats of the network the recorder observed).
func (r *FaultRecorder) Render(s noc.Stats) string {
	out := fmt.Sprintf(
		"corrupted %d, retransmits %d (rate %.4g/flit), link failures %d, reroutes %d, replans %d\n"+
			"band availability %.4f, MTTR %.0f cycles",
		s.FlitsCorrupted, s.Retransmits, r.RetransmissionRate(s),
		s.LinkFailures, s.DegradedReroutes, s.Reconfigurations,
		r.Availability(), r.MTTR())
	if pre, post, delta, ok := r.LatencyDelta(); ok {
		out += fmt.Sprintf("\npacket latency pre-fault %.1f, post-fault %.1f (delta %+.1f cycles)",
			pre, post, delta)
	}
	return out
}
