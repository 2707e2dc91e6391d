package noc

// This file implements the end-to-end packet integrity layer
// (Config.Integrity): every plain unicast carries a per-source sequence
// number and a checksum over its message fields in the head flit. The
// receiver verifies both at ejection — a checksum mismatch or an
// ejection at the wrong router (RF band mis-tune) triggers a NACK-style
// retransmission from the sender-side outstanding table, and a sequence
// number that was already delivered is dropped as a duplicate (RF band
// re-trigger). Retransmissions share the link layer's retry budget and
// exponential backoff (FaultConfig.RetryLimit, backoffBase/backoffMax);
// when the budget runs out the packet is abandoned and counted in
// Stats.PacketsLost, closing the exactly-once ledger as
// injected = delivered + lost.

// integrityKey identifies a packet end to end: source router plus
// per-source sequence number.
type integrityKey struct {
	src int
	seq uint64
}

// pendingRetx is one NACK'd packet awaiting re-injection at its source.
type pendingRetx struct {
	at      int64 // cycle at which the retransmission enters the NI
	msg     Message
	seq     uint64
	attempt int
}

// integrityState is the network's end-to-end integrity bookkeeping.
type integrityState struct {
	// nextSeq[src] is the next sequence number assigned at source router
	// src.
	nextSeq []uint64

	// seen records delivered packets for receiver-side dedup.
	seen map[integrityKey]bool

	// outstanding is the sender-side retransmission table: every
	// injected-but-unacknowledged message, keyed by (src, seq). Entries
	// are removed on correct delivery or when the retry budget runs out.
	// NACK retransmission resends from it.
	outstanding map[integrityKey]Message

	// pending holds scheduled retransmissions not yet re-injected,
	// ordered by insertion (at-cycles are monotone per packet, not
	// globally; reinjectDue scans linearly).
	pending []pendingRetx
}

func newIntegrityState(nRouters int) *integrityState {
	return &integrityState{
		nextSeq:     make([]uint64, nRouters),
		seen:        map[integrityKey]bool{},
		outstanding: map[integrityKey]Message{},
	}
}

// integritySum is the end-to-end checksum carried in the head flit: an
// FNV-1a fold over the message fields and the sequence number. It
// protects the header against corruption that slips past per-link CRC
// (modeled by the CorruptInFlightDst test hook).
func integritySum(m Message, seq uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(int64(m.Src)))
	mix(uint64(int64(m.Dst)))
	mix(uint64(int64(m.Class)))
	mix(uint64(m.Inject))
	if m.Multicast {
		mix(1)
	}
	mix(m.DBV)
	mix(seq)
	return h
}

// tag assigns a fresh sequence number and checksum to a packet entering
// the network at its source, and records it in the outstanding table.
func (ig *integrityState) tag(p *packet) {
	src := p.msg.Src
	p.hasSeq = true
	p.seq = ig.nextSeq[src]
	ig.nextSeq[src]++
	p.sum = integritySum(p.msg, p.seq)
	ig.outstanding[integrityKey{src: src, seq: p.seq}] = p.msg
}

// integrityAccept runs the receiver-side checks for an integrity-tagged
// packet whose tail just ejected at router rs. It returns true when the
// delivery is correct and first (normal bookkeeping proceeds), false
// when the packet was misdelivered, corrupted or a duplicate — in which
// case this ejection is not a delivery and the sender retransmits (or
// the duplicate is simply dropped).
func (n *Network) integrityAccept(rs *routerState, p *packet, at int64) bool {
	ig := n.integ
	key := integrityKey{src: p.msg.Src, seq: p.seq}
	if p.sum != integritySum(p.msg, p.seq) {
		// Header corrupted end to end: the carried fields cannot be
		// trusted, so retransmit from the sender-side table.
		n.stats.ChecksumFailures++
		n.scheduleRetx(key, p.attempt)
		return false
	}
	if rs.id != p.msg.Dst {
		// RF band mis-tune: ejected at the wrong router.
		n.stats.MisdeliveredPackets++
		n.scheduleRetx(key, p.attempt)
		return false
	}
	if ig.seen[key] {
		// Band re-trigger: this sequence number was already delivered.
		n.stats.DuplicatesDropped++
		return false
	}
	ig.seen[key] = true
	delete(ig.outstanding, key)
	return true
}

// scheduleRetx books a NACK-style retransmission of the packet
// identified by key, charging the end-to-end attempt count against the
// link layer's retry budget. The re-injection is delayed by the same
// exponential backoff a link-layer retransmission pays.
func (n *Network) scheduleRetx(key integrityKey, attempt int) {
	ig := n.integ
	msg, ok := ig.outstanding[key]
	if !ok {
		// Already delivered (this was a stale duplicate of a repaired
		// packet) or already abandoned: nothing to resend.
		return
	}
	fs := n.ensureFaults()
	attempt++
	if attempt > fs.cfg.RetryLimit {
		// Budget exhausted: the packet is lost, and accounted as such so
		// the exactly-once ledger still closes.
		delete(ig.outstanding, key)
		n.stats.PacketsLost++
		return
	}
	n.stats.IntegrityRetransmits++
	ig.pending = append(ig.pending, pendingRetx{
		at:      n.now + backoff(attempt),
		msg:     msg,
		seq:     key.seq,
		attempt: attempt,
	})
}

// reinjectDue moves due retransmissions from the pending list back into
// their source routers' NI queues. The re-injected packet keeps its
// original sequence number, checksum and inject timestamp (end-to-end
// latency includes recovery time) and does not recount in
// Stats.PacketsInjected — it is the same packet, trying again.
func (n *Network) reinjectDue() {
	ig := n.integ
	keep := ig.pending[:0]
	for _, r := range ig.pending {
		if r.at > n.now {
			keep = append(keep, r)
			continue
		}
		p := n.newPacket()
		p.msg = r.msg
		p.numFlits = r.msg.Flits(n.cfg.Width)
		p.hasSeq = true
		p.seq = r.seq
		p.sum = integritySum(r.msg, r.seq)
		p.attempt = r.attempt
		n.enqueue(r.msg.Src, p)
	}
	ig.pending = keep
}

// CorruptInFlightDst is a test hook modeling end-to-end header
// corruption that slipped past per-link CRC: it rewrites the destination
// of one in-flight packet (the oldest head found) without fixing its
// checksum, so only the integrity layer can catch it. It returns false
// if no eligible in-flight packet exists. Never call it outside tests.
func (n *Network) CorruptInFlightDst(newDst int) bool {
	for r := range n.routers {
		rs := &n.routers[r]
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				pkt := vc.pkt
				if pkt != nil && pkt.hasSeq && pkt.integrityEligible() &&
					pkt.msg.Dst != newDst && vc.sent == 0 {
					pkt.msg.Dst = newDst
					return true
				}
			}
		}
	}
	return false
}
