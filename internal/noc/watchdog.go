package noc

// This file implements the self-healing watchdog (Config.Watchdog):
// every CheckEvery cycles it audits forward progress, and when the
// oldest head flit has occupied a VC for StallHorizon cycles or more it
// escalates through three recovery stages, waiting Grace cycles between
// escalations for the previous stage to take effect:
//
//	stage 1 — credit re-audit/repair: every leaked credit is restored
//	          and every stuck VC is released back into arbitration
//	          (repairs the two fault modes that wedge the fabric
//	          without breaking any protocol invariant);
//	stage 2 — escape drain: the oldest blocked wormholes that have not
//	          yet moved a flit are forced onto the escape class
//	          (deadlock-free XY or up*/down* tree routing), the same
//	          fallback the EscapeTimeout mechanism uses, applied
//	          forcibly;
//	stage 3 — scrub and re-inject: the single oldest stalled packet is
//	          removed from the fabric entirely (every buffered and
//	          in-flight flit accounted in Stats.FlitsScrubbed, a term
//	          of the conservation identity) and re-injected at its
//	          source from the sender-side outstanding table, charging
//	          the end-to-end retry budget; a packet whose budget is
//	          exhausted is abandoned and counted in Stats.PacketsLost.
//
// The stage resets to zero as soon as the oldest head age falls back
// under the horizon. Exactly-once delivery is preserved throughout: a
// scrub removes every copy of the packet before the re-injection, and
// under Config.Integrity the receiver's dedup catches any race with an
// in-flight duplicate.

// WatchdogConfig tunes stall recovery. The zero value disables it.
type WatchdogConfig struct {
	// Enabled turns the watchdog on.
	Enabled bool

	// CheckEvery is the audit period in cycles. Default 1024.
	CheckEvery int64

	// StallHorizon is the head-flit age that counts as a stall. It
	// should sit well under the invariant checker's deadlock horizon so
	// recovery fires (and can finish) before the checker declares the
	// run dead. Default 25,000 cycles.
	StallHorizon int64

	// Grace is the minimum wait between escalation stages, giving the
	// previous stage time to restore progress. Default 2,048 cycles.
	Grace int64
}

// withDefaults fills the zero knobs of an enabled config.
func (w WatchdogConfig) withDefaults() WatchdogConfig {
	if !w.Enabled {
		return w
	}
	if w.CheckEvery == 0 {
		w.CheckEvery = 1024
	}
	if w.StallHorizon == 0 {
		w.StallHorizon = 25_000
	}
	if w.Grace == 0 {
		w.Grace = 2_048
	}
	return w
}

// watchdogState is the escalation position between checks.
type watchdogState struct {
	stage      int   // last stage fired; 0 = healthy
	lastAction int64 // cycle of the last escalation
}

// escapeDrainBatch bounds how many blocked wormholes one stage-2
// escalation forces onto the escape class.
const escapeDrainBatch = 8

// watchdogStep runs the periodic stall check. Called from Step at the
// end-of-cycle safe point (after arbitration, like applyPendingKills).
func (n *Network) watchdogStep() {
	cfg := n.cfg.Watchdog
	if n.now == 0 || n.now%cfg.CheckEvery != 0 {
		return
	}
	rep := n.Audit()
	if rep.OldestHeadAge < cfg.StallHorizon {
		n.wd.stage = 0
		return
	}
	if n.wd.stage > 0 && n.now-n.wd.lastAction < cfg.Grace {
		return
	}
	stage := n.wd.stage + 1
	if stage > 3 {
		stage = 3
	}
	n.wd.stage = stage
	n.wd.lastAction = n.now
	var actions int
	switch stage {
	case 1:
		actions = n.recoverCreditsAndVCs()
	case 2:
		actions = n.recoverForceEscape()
	case 3:
		actions = n.recoverScrubReinject()
	}
	n.stats.WatchdogRecoveries++
	for _, o := range n.observers {
		o.WatchdogRecovery(stage, actions, n.now)
	}
}

// recoverCreditsAndVCs is stage 1: restore every leaked credit and
// release every stuck VC. Returns the number of repairs.
func (n *Network) recoverCreditsAndVCs() int {
	actions := 0
	for r := range n.routers {
		rs := &n.routers[r]
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				if vc.leaked > 0 {
					n.stats.RecoveryCreditRepairs += int64(vc.leaked)
					actions += int(vc.leaked)
					vc.leaked = 0
				}
				if vc.stuck {
					vc.stuck = false
					n.stats.RecoveryVCUnsticks++
					actions++
				}
			}
		}
	}
	return actions
}

// recoverForceEscape is stage 2: the oldest normal-class wormholes that
// are stalled past the horizon and have not yet moved a flit (sent == 0,
// so diverting them cannot shear the packet) are forced onto the escape
// class, releasing any downstream reservation they hold. Returns the
// number of packets diverted.
func (n *Network) recoverForceEscape() int {
	horizon := n.cfg.Watchdog.StallHorizon
	var victims [escapeDrainBatch]*vcState
	nv := 0
	for r := range n.routers {
		rs := &n.routers[r]
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				pkt := vc.pkt
				if pkt == nil || pkt.class != vcClassNormal ||
					pkt.destSet != nil || pkt.mcFwd != nil {
					continue
				}
				if vc.sent > 0 || (vc.phase != phaseVA && vc.phase != phaseActive) {
					continue
				}
				if n.now-vc.arrivedAt < horizon {
					continue
				}
				// Keep the batch sorted oldest-first (insertion sort over
				// a constant-size array).
				i := nv
				if i == len(victims) {
					i--
					if victims[i] != nil && n.now-victims[i].arrivedAt >= n.now-vc.arrivedAt {
						continue
					}
				} else {
					nv++
				}
				for i > 0 && n.now-victims[i-1].arrivedAt < n.now-vc.arrivedAt {
					victims[i] = victims[i-1]
					i--
				}
				victims[i] = vc
			}
		}
	}
	for _, vc := range victims[:nv] {
		if vc.outVC != nil {
			vc.outVC.reserved = false
			vc.outVC = nil
		}
		vc.pkt.class = vcClassEscape
		vc.outPort = int8(n.escapeRoute(vc.router.id, vc.pkt.msg.Dst))
		vc.ncands = 0
		vc.phase = phaseVA
		vc.vaFirstFail = n.now
		n.stats.RecoveryEscapes++
		n.stats.EscapeSwitches++
	}
	return nv
}

// recoverScrubReinject is stage 3: the oldest stalled plain unicast is
// scrubbed out of the fabric (all its buffered and in-flight flits
// removed and accounted) and re-injected at its source, charging the
// end-to-end retry budget. Returns 1 when a packet was scrubbed.
func (n *Network) recoverScrubReinject() int {
	var victim *vcState
	var victimAge int64 = -1
	for r := range n.routers {
		rs := &n.routers[r]
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				if vc.pkt == nil || !vc.pkt.integrityEligible() {
					continue
				}
				if age := n.now - vc.arrivedAt; age > victimAge {
					victim, victimAge = vc, age
				}
			}
		}
	}
	if victim == nil {
		return 0
	}
	p := victim.pkt
	n.stats.FlitsScrubbed += int64(n.scrubPacket(p))
	// The scrub removed every fabric reference to p; recycle it on the
	// way out (any re-injection below is a fresh copy).
	defer n.freePacket(p)

	fs := n.ensureFaults()
	attempt := p.attempt + 1
	if n.integ != nil && p.hasSeq {
		key := integrityKey{src: p.msg.Src, seq: p.seq}
		msg, ok := n.integ.outstanding[key]
		if !ok {
			// Already delivered (this stalled copy was a duplicate) or
			// already abandoned: the scrub alone is the recovery.
			return 1
		}
		if attempt > fs.cfg.RetryLimit {
			delete(n.integ.outstanding, key)
			n.stats.PacketsLost++
			for _, o := range n.observers {
				o.PacketLost(msg, n.now)
			}
			return 1
		}
		n.stats.RecoveryReinjections++
		n.integ.pending = append(n.integ.pending, pendingRetx{
			at: n.now + fs.backoff(attempt), msg: msg, seq: p.seq, attempt: attempt,
		})
		return 1
	}
	if attempt > fs.cfg.RetryLimit {
		n.stats.PacketsLost++
		for _, o := range n.observers {
			o.PacketLost(p.msg, n.now)
		}
		return 1
	}
	n.stats.RecoveryReinjections++
	retry := n.newPacket()
	retry.msg = p.msg
	retry.numFlits = p.numFlits
	retry.hasSeq = p.hasSeq
	retry.seq = p.seq
	retry.sum = p.sum
	retry.attempt = attempt
	n.enqueue(p.msg.Src, retry)
	return 1
}

// scrubPacket removes every trace of packet p from the fabric: its
// buffered flits, its flits in flight on the wheel, its NI feeding, and
// every VC occupancy and downstream reservation it holds. Returns the
// number of flits removed (they were counted injected but will never
// eject; the caller accounts them in Stats.FlitsScrubbed so the
// conservation identity still balances). The packet retires without
// delivery (in-flight count drops by one); re-injection is the caller's
// decision.
func (n *Network) scrubPacket(p *packet) int {
	// Collect every VC the packet occupies plus every VC it has
	// reserved downstream. Reservations are exclusive, so any flit in
	// flight toward a VC in this set belongs to p.
	vcSet := map[*vcState]bool{}
	for r := range n.routers {
		rs := &n.routers[r]
		for pt := 0; pt < numPorts; pt++ {
			for _, vc := range rs.vcs[pt] {
				if vc.pkt == p {
					vcSet[vc] = true
					if vc.outVC != nil {
						vcSet[vc.outVC] = true
					}
				}
			}
		}
	}
	for slot := range n.wheel {
		for _, t := range n.wheel[slot] {
			if t.pkt == p {
				vcSet[t.to] = true
			}
		}
	}
	scrubbed := 0
	for slot := range n.wheel {
		keep := n.wheel[slot][:0]
		for _, t := range n.wheel[slot] {
			if vcSet[t.to] {
				t.to.incoming--
				scrubbed++
				continue
			}
			keep = append(keep, t)
		}
		n.wheel[slot] = keep
	}
	// An NI still feeding p stops; flits it never fed were never counted
	// injected.
	for r := range n.routers {
		rs := &n.routers[r]
		keep := rs.feedings[:0]
		for _, f := range rs.feedings {
			if !vcSet[f.vc] {
				keep = append(keep, f)
			}
		}
		rs.feedings = keep
	}
	for vc := range vcSet {
		scrubbed += int(vc.count)
		vc.head, vc.count = 0, 0
		vc.pkt = nil
		vc.reserved = false
		vc.phase = phaseIdle
		vc.outVC = nil
		vc.outPort = 0
		vc.vaFirstFail = -1
		vc.ncands = 0
		vc.sent, vc.retries = 0, 0
		// leaked/stuck are independent faults; stage 1 owns them.
	}
	n.inFlightPackets--
	return scrubbed
}
