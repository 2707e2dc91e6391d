package noc

// This file implements the per-cycle router logic: route computation and
// virtual-channel allocation for head flits, switch allocation (one grant
// per output port and one per input port each cycle, round-robin), and
// flit departure, matching the paper's five-stage pipeline. Head flits
// become switch-eligible three cycles after arrival (RC at t+1, VA at
// t+2, SA from t+3) and arrive at the next router two cycles after their
// grant (ST, then single-cycle LT), for the paper's 5-cycle head latency
// per hop; body and tail flits are eligible one cycle after arrival, for
// the 3-cycle body latency.

// advanceRouter runs one router's cycle: active-list compaction, the
// RC and VA stages of every live head, then switch allocation, each
// winner departing as soon as it is granted. Step calls it for every
// live router in index order, and that order is part of the model: a
// tail departing from a lower-index router frees its downstream VC
// before higher-index routers allocate (same-cycle credit turnaround),
// so a pass that froze VC state at the start of the cycle and allocated
// against it would change results, not just timing.
func (n *Network) advanceRouter(rs *routerState) {
	// Compaction stores only the pointers that move, and the self-reslice
	// after it only the length: on a loaded cycle nothing moves.
	active, na := rs.active, 0
	for i, vc := range active {
		if vc.pkt == nil {
			vc.inActive = false // retired; prune lazily
			continue
		}
		if na != i {
			active[na] = vc
		}
		na++
		// Only RC and VA heads have a stage to run.
		if vc.phase != phaseActive {
			n.advanceVC(rs, vc)
		}
	}
	rs.active = rs.active[:na]
	if na == 0 {
		n.live[rs.id>>6] &^= 1 << (rs.id & 63)
		return // the round-robin pointer only turns while VCs are live
	}

	// Switch allocation: each port moves up to its budget of flits per
	// cycle in each direction, scanning the active list round-robin from
	// rrOffset. A winner departs at once. That grants exactly what
	// granting the whole scan first would: a downstream VC is reserved by
	// one upstream VC only, and a departure touches only its own VC and
	// outVC, the link wheel, the statistics, the packet pool, the fault
	// RNG and the NI and multicast queues, none of which another VC's
	// check below reads.
	outLeft, inLeft := n.portBudget, n.portBudget
	depth := n.bufDepth
	active = active[:na]
	j := 0
	if na > 1 {
		j = rs.rrOffset % na
	}
	rs.rrOffset++
	for i := 0; i < na; i++ {
		vc := active[j]
		if j++; j == na {
			j = 0
		}
		if vc.phase != phaseActive || inLeft[vc.port] == 0 {
			continue
		}
		f := vc.front()
		if f == nil || f.eligibleAt() > n.now {
			continue
		}
		if outLeft[vc.outPort] == 0 {
			continue // output taken this cycle
		}
		if vc.outVC != nil && !vc.outVC.space(depth) {
			continue // no credit downstream
		}
		outLeft[vc.outPort]--
		inLeft[vc.port]--
		n.depart(rs, vc)
	}
}

// advanceVC runs the RC and VA stages for the packet occupying vc.
func (n *Network) advanceVC(rs *routerState, vc *vcState) {
	switch vc.phase {
	case phaseRC:
		if n.now < vc.arrivedAt+1+int64(vc.rcExtra) {
			return
		}
		n.computeRoute(rs, vc)
		vc.phase = phaseVA
	case phaseVA:
		if n.now < vc.arrivedAt+2+int64(vc.rcExtra) {
			return
		}
		if vc.outPort == portLocal {
			vc.outVC = nil
			vc.phase = phaseActive
			return
		}
		if vc.ncands > 1 {
			// Adaptive VA: prefer the minimal port with the most free
			// downstream VCs this cycle.
			best, bestFree := vc.outPort, -1
			for _, p := range vc.candidates() {
				if free := n.freeVCCount(rs.id, int(p), vc.pkt.class); free > bestFree {
					best, bestFree = p, free
				}
			}
			if bestFree > 0 {
				vc.outPort = best
			}
		}
		down := n.downstreamVC(rs.id, int(vc.outPort), vc.pkt.class)
		if down != nil {
			down.reserved = true
			vc.outVC = down
			vc.phase = phaseActive
			// SA no earlier than the cycle after VA completes.
			if f := vc.front(); f != nil && f.eligibleAt() < n.now+1 {
				f.setEligibleAt(n.now + 1)
			}
			return
		}
		n.vaFail(rs, vc)
	}
}

// computeRoute is the RC stage: it sets vc's output port and, for
// adaptive routing, the minimal candidate ports VA chooses among.
func (n *Network) computeRoute(rs *routerState, vc *vcState) {
	vc.outPort = int8(n.route(rs.id, vc))
	vc.ncands = 0
	if n.cfg.AdaptiveRouting && vc.outPort != portLocal &&
		vc.pkt.class == vcClassNormal && vc.pkt.destSet == nil {
		vc.ncands = int8(len(n.adaptiveCandidates(rs.id, vc.pkt.msg.Dst, vc.cands[:0])))
	}
}

// vaFail books a VC-allocation failure: track how long the head has
// been stuck, and after the escape timeout re-route normal-class
// packets onto the escape VCs (XY over conventional mesh links only),
// the paper's deadlock-avoidance mechanism.
func (n *Network) vaFail(rs *routerState, vc *vcState) {
	if vc.vaFirstFail < 0 {
		vc.vaFirstFail = n.now
	}
	if vc.pkt.class == vcClassNormal && vc.pkt.destSet == nil &&
		n.now-vc.vaFirstFail >= n.cfg.EscapeTimeout {
		vc.pkt.class = vcClassEscape
		vc.outPort = int8(n.escapeRoute(rs.id, vc.pkt.msg.Dst))
		// The escape class follows escapeRoute alone: an adaptive
		// choice here would break its acyclic channel dependencies.
		vc.ncands = 0
		vc.vaFirstFail = n.now
		n.stats.EscapeSwitches++
	}
}

// route computes the output port for the packet at the head of vc.
func (n *Network) route(r int, vc *vcState) int {
	p := vc.pkt
	if p.destSet != nil {
		// Forking (VCT) multicast: absorb at delivery or branch routers,
		// otherwise follow the common mesh-fallback port (XY, or tree
		// routing while mesh links are failed).
		port := -1
		for _, d := range p.destSet {
			if d == r {
				return portLocal
			}
			dp := n.escapeRoute(r, d)
			if port == -1 {
				port = dp
			} else if port != dp {
				return portLocal // fork here
			}
		}
		return port
	}
	if r == p.msg.Dst {
		return portLocal
	}
	if p.class == vcClassEscape {
		return n.escapeRoute(r, p.msg.Dst)
	}
	return int(n.routes.port[r][p.msg.Dst])
}

// downstreamVC finds a free VC of the given class at the input port on
// the far side of output port out at router r, or nil.
func (n *Network) downstreamVC(r, out, class int) *vcState {
	var target *routerState
	var inPort int
	if out == portRF {
		dst := n.shortcutFrom[r]
		if dst < 0 {
			panic("noc: RF route at router without outbound shortcut")
		}
		target = &n.routers[dst]
		inPort = portRF
	} else {
		nb := neighborThrough(n, r, out)
		if nb < 0 {
			panic("noc: route off mesh edge")
		}
		target = &n.routers[nb]
		inPort = oppositePort(out)
	}
	return n.freeVC(target, inPort, class)
}

func oppositePort(p int) int {
	switch p {
	case portNorth:
		return portSouth
	case portSouth:
		return portNorth
	case portEast:
		return portWest
	case portWest:
		return portEast
	}
	panic("noc: no opposite for non-mesh port")
}

// depart sends vc's front flit through the crossbar.
func (n *Network) depart(rs *routerState, vc *vcState) {
	if n.faults != nil && vc.outPort != portLocal && n.faults.corrupts(rs.id, int(vc.outPort)) {
		// CRC failure on the link: the flit never leaves the sender VC
		// (the grant and link cycle are wasted), and the link layer
		// retransmits after a NACK round trip plus backoff.
		n.retransmit(rs, vc)
		return
	}
	f := vc.pop(n.bufDepth)
	p := vc.pkt
	vc.sent++
	vc.retries = 0
	n.stats.RouterTraversals++
	if len(n.observers) != 0 {
		for _, o := range n.observers {
			o.FlitSent(rs.id, int(vc.outPort), n.now)
		}
	}

	if vc.outPort == portLocal {
		// Ejection: the flit leaves through the local port, reaching the
		// NI two cycles after the grant (ST + LT). Per-flit latency is
		// measured against the flit's own injection cycle (the NI feeds
		// one flit per cycle), the paper's latency/flit metric.
		n.stats.LocalFlitHops++
		n.stats.FlitsEjected++
		if p.destSet == nil && p.mcFwd == nil && p.deliverCore < 0 {
			flitInject := p.msg.Inject + int64(p.ejected)
			n.stats.FlitLatency += (n.now + 2) - flitInject
			p.ejected++
			if len(n.observers) != 0 {
				for _, o := range n.observers {
					o.FlitEjected(rs.id, (n.now+2)-flitInject)
				}
			}
		}
		if f.isTail() {
			n.retire(rs, p)
			vc.release()
		}
		return
	}

	// Bandwidth/energy accounting by link type.
	flitBits := int64(n.cfg.Width.Bits())
	lat := int64(1)
	switch {
	case vc.outPort == portRF:
		lat = n.shortcutLat[rs.id]
		n.stats.RFShortcutBits += flitBits
	default:
		n.stats.MeshFlitHops++
	}
	if vc.outPort == portRF && n.cfg.WireShortcuts {
		// Wire shortcuts are conventional repeated wires: account their
		// length for link energy instead of RF bits.
		n.stats.RFShortcutBits -= flitBits
		n.stats.WireShortcutFlitMM += float64(n.cfg.Mesh.Manhattan(rs.id, n.shortcutFrom[rs.id])) * meshLinkMM
	}

	n.schedule(transfer{
		to: vc.outVC, pkt: headPkt(f, p), isHead: f.isHead(), isTail: f.isTail(),
	}, lat)
	if f.isHead() {
		p.hops++
	}
	if f.isTail() {
		vc.release()
	}
}

func headPkt(f flitSlot, p *packet) *packet {
	if f.isHead() {
		return p
	}
	return nil
}

// release frees a VC after its packet's tail departs.
func (v *vcState) release() {
	v.pkt = nil
	v.phase = phaseIdle
	v.outVC = nil
	v.outPort = 0
	v.vaFirstFail = -1
	v.ncands = 0
	v.sent = 0
	v.retries = 0
}

// retire completes a packet whose tail ejected at router rs. Ejection
// completes two cycles after the grant (ST + LT into the NI). The tail
// ejection dropped the last live reference, so every branch ends by
// recycling the packet.
func (n *Network) retire(rs *routerState, p *packet) {
	at := n.now + 2
	n.inFlightPackets--
	switch {
	case p.destSet != nil:
		// Forking multicast absorbed at a branch/delivery router.
		n.spawnMulticastChildren(rs.id, p, false)
	case p.deliverCore >= 0:
		// Expanded-multicast unicast or RF local delivery: count as a
		// multicast delivery against the original inject time.
		n.recordMulticastDelivery(p.msg, p.numFlits, at)
	case p.mcFwd != nil:
		n.mc.enqueueEntry(p.mcFwd.cluster, p.mcFwd.entry)
	default:
		lat := at - p.msg.Inject
		n.stats.PacketsEjected++
		n.stats.PacketLatency += lat
		n.stats.HopSum += int64(p.hops)
		d := n.cfg.Mesh.Manhattan(p.msg.Src, p.msg.Dst)
		n.stats.MsgsByDistance[d]++
		if len(n.observers) != 0 {
			for _, o := range n.observers {
				o.PacketDelivered(p.msg, at, p.hops)
			}
		}
	}
	n.freePacket(p)
}
