package noc

import (
	"fmt"
	"strings"
)

// This file defines the simulator's observability seam: a typed event
// interface fired synchronously from the router pipeline, plus the
// consistency-audit primitives the invariant checker builds on. With no
// observer attached every hook site costs one predictable branch on a
// nil slice, keeping the hot path at seed speed (see
// BenchmarkObserverOverhead); implementations live in internal/obs so
// this package stays dependency-free.

// Observer receives simulation events. All methods are called
// synchronously from the simulation loop, in cycle order; an observer
// must not mutate the network (except via the documented read-only
// accessors on the *Network it receives in CycleEnd).
//
// Events carry what an observer needs per occurrence: timing, ports or
// the delivered message. Activity that only needs counting (injections,
// corruptions, retransmissions) is in Stats and has no event.
//
// Embed BaseObserver to implement only the events you care about.
type Observer interface {
	// FlitSent fires for every flit granted through a crossbar, with
	// the router it leaves and the output port it takes (PortName names
	// ports; Local is an ejection, RF a shortcut band).
	FlitSent(router, outPort int, now int64)

	// FlitEjected fires for every plain-unicast flit leaving through a
	// local port, with its per-flit latency (the paper's latency/flit
	// metric: each flit timestamped at its own injection cycle).
	FlitEjected(router int, lat int64)

	// PacketDelivered fires on every plain-unicast tail ejection with
	// the original message, the completion cycle, and the hop count.
	PacketDelivered(msg Message, at int64, hops int)

	// MulticastDelivered fires once per destination served by a
	// multicast, with the original message and the delivery cycle.
	MulticastDelivered(msg Message, at int64)

	// LinkFailed fires when a link is declared permanently dead: an RF-I
	// shortcut band (outPort PortRF), a mesh link (a mesh port), or the
	// RF multicast band (router -1, outPort PortRF).
	LinkFailed(router, outPort int, now int64)

	// Replanned fires when Network.Reconfigure installs a new shortcut
	// plan (including post-failure replans), after the routing-table
	// update stall has been paid.
	Replanned(edges int, now int64)

	// CycleEnd fires after every Step, once the cycle's arrivals,
	// injections and arbitration have all completed. The network is in
	// a consistent state; Audit and the Stats accessors are safe here.
	CycleEnd(n *Network)
}

// BaseObserver is a no-op Observer for embedding.
type BaseObserver struct{}

func (BaseObserver) FlitSent(int, int, int64)            {}
func (BaseObserver) FlitEjected(int, int64)              {}
func (BaseObserver) PacketDelivered(Message, int64, int) {}
func (BaseObserver) MulticastDelivered(Message, int64)   {}
func (BaseObserver) LinkFailed(int, int, int64)          {}
func (BaseObserver) Replanned(int, int64)                {}
func (BaseObserver) CycleEnd(*Network)                   {}

// NumPorts is the per-router port count (N, E, S, W, Local, RF), the
// width of per-port observer dimensions.
const NumPorts = numPorts

// Port indices, exported for observers that filter by port.
const (
	PortNorth = portNorth
	PortEast  = portEast
	PortSouth = portSouth
	PortWest  = portWest
	PortLocal = portLocal
	PortRF    = portRF
)

// PortName renders a port index ("N", "E", "S", "W", "L", "RF").
func PortName(p int) string { return portName(p) }

// AttachObserver registers an observer; events fire in attachment
// order. Attaching during a run is allowed and takes effect at the next
// event.
func (n *Network) AttachObserver(o Observer) {
	if o == nil {
		panic("noc: nil observer")
	}
	n.observers = append(n.observers, o)
}

// DetachObserver removes a previously attached observer (identity
// comparison). It is a no-op if o is not attached.
func (n *Network) DetachObserver(o Observer) {
	for i, cur := range n.observers {
		if cur == o {
			n.observers = append(n.observers[:i], n.observers[i+1:]...)
			return
		}
	}
}

// AuditReport is a consistency snapshot of the network's internal
// state, computed by Audit. The invariant checker (internal/obs)
// evaluates it every K cycles; tests can also assert on it directly.
type AuditReport struct {
	Now int64

	// Flit conservation: every flit counted injected must be ejected,
	// buffered in some VC, or in flight on a link (the arrival wheel).
	FlitsInjected int64
	FlitsEjected  int64
	FlitsBuffered int64 // sum of VC buffer occupancy
	FlitsOnLinks  int64 // flits scheduled on links, not yet arrived

	// PacketsInFlight is the packet-level in-flight count (injected
	// minus retired, including multicast children); it must never go
	// negative.
	PacketsInFlight int64

	// CreditViolations counts VCs whose occupancy bookkeeping is out of
	// range (negative counts, or buffered+incoming exceeding capacity —
	// i.e. a credit went negative).
	CreditViolations int

	// Forward progress: the oldest head flit still occupying a VC.
	// OldestHeadAge is Now minus its arrival cycle (0 when the network
	// is empty); OldestRouter/OldestPort/OldestVC locate it.
	OldestHeadAge int64
	OldestRouter  int
	OldestPort    int
	OldestVC      int
}

// ConservationError returns injected - ejected - buffered - on-links;
// any non-zero value means flits were created or destroyed.
func (a AuditReport) ConservationError() int64 {
	return a.FlitsInjected - a.FlitsEjected - a.FlitsBuffered - a.FlitsOnLinks
}

// Audit computes a consistency snapshot. It is O(routers x ports x VCs)
// and allocation-free; safe to call between cycles (e.g. from
// Observer.CycleEnd), not from inside a Step.
func (n *Network) Audit() AuditReport {
	rep := AuditReport{
		Now:             n.now,
		FlitsInjected:   n.stats.FlitsInjected,
		FlitsEjected:    n.stats.FlitsEjected,
		PacketsInFlight: n.inFlightPackets,
		OldestRouter:    -1,
		OldestPort:      -1,
		OldestVC:        -1,
	}
	for slot := range n.wheel {
		rep.FlitsOnLinks += int64(len(n.wheel[slot]))
	}
	for r := range n.routers {
		rs := &n.routers[r]
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				rep.FlitsBuffered += int64(vc.count)
				if vc.count < 0 || vc.incoming < 0 ||
					vc.count+vc.incoming > n.bufDepth {
					rep.CreditViolations++
				}
				if vc.pkt != nil {
					if age := n.now - vc.arrivedAt; age > rep.OldestHeadAge {
						rep.OldestHeadAge = age
						rep.OldestRouter, rep.OldestPort, rep.OldestVC = r, p, int(vc.idx)
					}
				}
			}
		}
	}
	return rep
}

// DumpRouter renders one router's live state (occupied VCs, their
// phases, ages and routes, plus NI queue depths) for deadlock and
// conservation post-mortems.
func (n *Network) DumpRouter(r int) string {
	rs := &n.routers[r]
	c := n.cfg.Mesh.Coord(r)
	var b strings.Builder
	fmt.Fprintf(&b, "router %d (%d,%d) @cycle %d: queue=%d reinject=%d feedings=%d\n",
		r, c.X, c.Y, n.now, len(rs.queue)-rs.qhead, len(rs.reinject)-rs.rhead, len(rs.feedings))
	phases := [...]string{"idle", "RC", "VA", "active"}
	for p := 0; p < numPorts; p++ {
		for _, vc := range rs.vcs[p] {
			if vc.pkt == nil && vc.count == 0 && vc.incoming == 0 && !vc.reserved {
				continue
			}
			fmt.Fprintf(&b, "  %s.vc%d class=%d phase=%s buf=%d incoming=%d reserved=%v",
				portName(p), vc.idx, vc.class, phases[vc.phase], vc.count, vc.incoming, vc.reserved)
			if vc.pkt != nil {
				fmt.Fprintf(&b, " pkt %d->%d flits=%d age=%d out=%s",
					vc.pkt.msg.Src, vc.pkt.msg.Dst, vc.pkt.numFlits,
					n.now-vc.arrivedAt, portName(int(vc.outPort)))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CorruptFlitCounter perturbs the injected-flit counter by delta. It
// exists solely for fault-injection tests validating that the invariant
// checker detects conservation violations; never call it otherwise.
func (n *Network) CorruptFlitCounter(delta int64) {
	n.stats.FlitsInjected += delta
}
