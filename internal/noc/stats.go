package noc

// Stats accumulates raw activity counters over a simulation. The power
// package converts them, together with the Config, into energy and
// average power; the experiments package turns them into the paper's
// latency and distance-histogram figures.
type Stats struct {
	Cycles int64

	// Unicast packet accounting. A packet's latency is measured from
	// message creation to tail-flit ejection at the destination.
	PacketsInjected int64
	PacketsEjected  int64
	FlitsInjected   int64
	FlitsEjected    int64
	PacketLatency   int64 // sum over ejected packets (head inject -> tail eject)
	FlitLatency     int64 // sum of per-flit latencies (each flit timestamped at its own injection cycle)
	HopSum          int64 // router hops traversed, summed over ejected packets

	// Activity counters for the energy model.
	RouterTraversals   int64   // flit-through-router events (buffer+xbar+arb)
	MeshFlitHops       int64   // flits crossing inter-router mesh links
	LocalFlitHops      int64   // flits crossing NI<->router local links
	WireShortcutFlitMM float64 // flit-millimeters over wire shortcut links
	RFShortcutBits     int64   // bits moved over RF-I shortcut bands
	RFMulticastBits    int64   // bits transmitted on the RF multicast band
	RFMulticastRxBits  int64   // bits received across all non-gated receivers
	RFGatedRxFlits     int64   // receiver-flits saved by DBV power gating

	// Multicast delivery accounting (per destination core served).
	MulticastMessages       int64
	MulticastDeliveries     int64
	MulticastLatency        int64 // sum over deliveries, creation -> delivery
	MulticastFlitsDelivered int64
	MulticastFlitLatency    int64

	// VCT tree-table behaviour.
	VCTHits   int64
	VCTMisses int64

	// Deadlock-avoidance behaviour: packets re-routed to escape VCs.
	EscapeSwitches int64

	// Fault-injection and recovery behaviour: flits failing CRC on a
	// link, link-layer retransmissions, links declared permanently dead
	// (shortcut bands, mesh links, the multicast band), and in-flight
	// packets re-routed onto the surviving topology after a failure.
	FlitsCorrupted   int64
	Retransmits      int64
	LinkFailures     int64
	DegradedReroutes int64

	// Adversarial fault modes (FaultConfig rates and scheduled events):
	// whole packets diverted to a wrong-but-live output port at route
	// computation, packets ejected at the wrong router after an RF band
	// mis-tune, duplicate copies spawned by an RF band re-trigger, credits
	// silently leaked from VC buffers, and VCs wedged out of arbitration.
	MisroutedPackets    int64
	MisdeliveredPackets int64
	DuplicatesInjected  int64
	CreditLeaks         int64
	StuckVCs            int64

	// End-to-end integrity layer (Config.Integrity): duplicate deliveries
	// suppressed by receiver-side dedup, checksum mismatches detected at
	// ejection, NACK-style source retransmissions, and packets abandoned
	// after the retry budget ran out.
	DuplicatesDropped    int64
	ChecksumFailures     int64
	IntegrityRetransmits int64
	PacketsLost          int64

	// Watchdog recovery (Config.Watchdog): firings that repaired
	// something, leaked credits repaired and VCs unstuck.
	WatchdogRecoveries    int64
	RecoveryCreditRepairs int64
	RecoveryVCUnsticks    int64

	// Runtime reconfiguration activity (noc.Network.Reconfigure).
	Reconfigurations     int64
	ReconfigUpdateCycles int64

	// MsgsByDistance histograms ejected unicast messages by the manhattan
	// distance between source and destination router (Figure 1). Index is
	// hop distance; length is W+H-1 for the simulated mesh (19 on the
	// paper's 10x10).
	MsgsByDistance []int64
}

// AvgPacketLatency returns the mean packet latency in cycles over ejected
// unicast packets plus multicast deliveries, the paper's "average network
// latency" metric. Returns 0 when nothing was delivered.
func (s *Stats) AvgPacketLatency() float64 {
	n := s.PacketsEjected + s.MulticastDeliveries
	if n == 0 {
		return 0
	}
	return float64(s.PacketLatency+s.MulticastLatency) / float64(n)
}

// AvgFlitLatency returns the mean per-flit latency in cycles, the
// paper's "average network latency/flit" metric: each flit is
// timestamped at its own injection cycle (the NI serializes a message at
// one flit per cycle), so message serialization at the source does not
// count against narrow meshes -- only genuine network residence does.
func (s *Stats) AvgFlitLatency() float64 {
	n := s.FlitsEjected + s.MulticastFlitsDelivered
	if n == 0 {
		return 0
	}
	return float64(s.FlitLatency+s.MulticastFlitLatency) / float64(n)
}

// AvgHops returns the mean hop count of ejected unicast packets.
func (s *Stats) AvgHops() float64 {
	if s.PacketsEjected == 0 {
		return 0
	}
	return float64(s.HopSum) / float64(s.PacketsEjected)
}

// Throughput returns ejected flits per cycle.
func (s *Stats) Throughput() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FlitsEjected) / float64(s.Cycles)
}
