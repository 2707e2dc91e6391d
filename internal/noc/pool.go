package noc

// Packet freelist. Ownership rules (see DESIGN.md, "Pooling ownership"):
// a *packet has exactly one owner at any time — an NI queue slot, the
// VC/wheel ensemble carrying its flits (released jointly at tail
// ejection), the RF channel's pending local-delivery list, or the pool.
// freePacket may only be called by the path that just dropped the last
// live reference: retire (all branches), RF local-delivery retirement,
// or a transient forking parent. Allocation and recycling both happen
// only in the serial phases of a cycle, so the freelist needs no locking.

// newPacket returns a zeroed packet (deliverCore -1, the "plain
// unicast" sentinel) from the pool, or a fresh one.
func (n *Network) newPacket() *packet {
	k := len(n.pktPool) - 1
	if k < 0 {
		return &packet{deliverCore: -1}
	}
	p := n.pktPool[k]
	n.pktPool[k] = nil
	n.pktPool = n.pktPool[:k]
	*p = packet{deliverCore: -1}
	return p
}

// freePacket recycles a retired packet, reclaiming its destination-set
// backing array. Double frees corrupt the pool silently (two owners of
// one packet), so they panic instead.
func (n *Network) freePacket(p *packet) {
	if p.pooled {
		panic("noc: double free of pooled packet")
	}
	p.pooled = true
	if p.destSet != nil {
		n.freeDestSet(p.destSet)
		p.destSet = nil
	}
	p.mcFwd = nil
	n.pktPool = append(n.pktPool, p)
}

// newDestSet returns an empty non-nil destination-set slice, reusing a
// pooled backing array when one is available. Non-nil matters: a nil
// destSet marks a plain unicast, an allocated one a forking multicast.
func (n *Network) newDestSet() []int {
	k := len(n.dsPool) - 1
	if k < 0 {
		return make([]int, 0, 8)
	}
	s := n.dsPool[k]
	n.dsPool[k] = nil
	n.dsPool = n.dsPool[:k]
	return s[:0]
}

func (n *Network) freeDestSet(s []int) {
	n.dsPool = append(n.dsPool, s)
}
