package noc

import "fmt"

// This file implements the RF-I multicast channel of Section 3.3 and the
// VCT tree table used by the conventional-mesh multicast baseline.
//
// RF multicast: one frequency band is dedicated to multicast. Senders are
// cache banks only; a coarse-grain arbiter gives the band to one cache
// cluster per epoch, and within a cluster the designated central bank
// transmits. A bank wanting to multicast first forwards the message over
// conventional mesh links to its central bank. The transmission starts
// with a flit carrying the 64-bit destination bit vector (DBV) and the
// message's flit count; receivers not addressed by the DBV power-gate for
// the indicated duration, while addressed receivers copy each payload
// flit to the core(s) they serve as it arrives.

// mcEntry is one multicast queued for RF transmission.
type mcEntry struct {
	msg      Message
	numFlits int // payload flits (the DBV flit is extra)
}

// mcChannel is the multicast band state.
type mcChannel struct {
	n *Network
	// queues[c] holds multicasts awaiting transmission at cluster c's
	// central bank.
	queues   [][]mcEntry
	owner    int
	epochEnd int64

	cur       *mcEntry
	flitsSent int // includes the DBV flit

	// receivers tuned to the multicast band, and the cores each serves
	// (every core is served by its nearest tuned receiver).
	receivers []int
	served    map[int][]int // receiver router -> core indices
	// activeRx, for the in-flight multicast, are receivers whose served
	// cores intersect the DBV (the rest are power-gated).
	activeRx []int

	// pendingLocal holds local deliveries (receiver == core router)
	// waiting for the tail flit to arrive.
	pendingLocal []localDelivery
}

type localDelivery struct {
	at  int64
	pkt *packet
}

func newMCChannel(n *Network) *mcChannel {
	m := n.cfg.Mesh
	mc := &mcChannel{
		n:         n,
		queues:    make([][]mcEntry, len(m.CacheClusters())),
		receivers: n.cfg.MulticastReceivers,
		served:    map[int][]int{},
		owner:     -1,
	}
	// Assign every core to its nearest tuned receiver (ties to the lower
	// router id), mirroring the paper's "each RF-enabled router serves
	// two cores" example for the 50-receiver configuration.
	cores := m.Cores()
	for ci, router := range cores {
		best, bestD := -1, 1<<30
		for _, rx := range mc.receivers {
			if d := m.Manhattan(router, rx); d < bestD {
				best, bestD = rx, d
			}
		}
		if best >= 0 {
			mc.served[best] = append(mc.served[best], ci)
		}
	}
	return mc
}

// pending counts undelivered multicast work (queued + in flight).
func (mc *mcChannel) pending() int64 {
	var v int64
	for _, q := range mc.queues {
		v += int64(len(q))
	}
	if mc.cur != nil {
		v++
	}
	v += int64(len(mc.pendingLocal))
	return v
}

// submit routes a multicast toward the RF channel: directly into the
// central bank's queue if the source is the central bank, otherwise as a
// conventional-mesh unicast forward to the central bank. A source
// outside every cache cluster has no band arbiter to reach and is
// rejected with an error (the channel is unchanged).
func (mc *mcChannel) submit(msg Message) error {
	m := mc.n.cfg.Mesh
	cluster := m.ClusterOf(msg.Src)
	if cluster < 0 {
		return fmt.Errorf("noc: inject: multicast sender %d is not a cache bank", msg.Src)
	}
	central := m.CentralBank(cluster)
	entry := mcEntry{msg: msg, numFlits: msg.Flits(mc.n.cfg.Width)}
	if msg.Src == central {
		mc.queues[cluster] = append(mc.queues[cluster], entry)
		return nil
	}
	fwd := msg
	fwd.Multicast = false
	fwd.Dst = central
	p := mc.n.newPacket()
	p.msg = fwd
	p.numFlits = entry.numFlits
	p.mcFwd = &mcForward{cluster: cluster, entry: entry}
	mc.n.enqueue(msg.Src, p)
	return nil
}

// enqueueEntry queues a multicast for RF transmission, or — when the
// band has failed — degrades it to unicast expansion from its original
// source.
func (mc *mcChannel) enqueueEntry(cluster int, e mcEntry) {
	if mc.n.mcDead {
		mc.n.expandMulticast(e.msg)
		return
	}
	mc.queues[cluster] = append(mc.queues[cluster], e)
}

// failover drains every queued multicast into the unicast-expansion
// path after the band is declared dead. The transmission in flight (if
// any) completes: its flits are already on the air, the packet-granular
// failure model all links share.
func (mc *mcChannel) failover() {
	for c, q := range mc.queues {
		mc.queues[c] = nil
		for _, e := range q {
			mc.n.expandMulticast(e.msg)
		}
	}
}

// step advances the channel one cycle: epoch arbitration, one flit of
// transmission, and local-delivery retirement.
func (mc *mcChannel) step() {
	n := mc.n
	// Retire local deliveries whose tail has arrived.
	keep := mc.pendingLocal[:0]
	for _, ld := range mc.pendingLocal {
		if ld.at <= n.now {
			n.recordMulticastDelivery(ld.pkt.msg, ld.pkt.numFlits, ld.at)
			n.freePacket(ld.pkt)
		} else {
			keep = append(keep, ld)
		}
	}
	mc.pendingLocal = keep

	if mc.cur == nil {
		mc.arbitrate()
		if mc.cur == nil {
			return
		}
	}
	mc.transmitFlit()
}

// multicastEpoch is the coarse-grain band-arbitration epoch in cycles:
// for each epoch one cache cluster's central bank owns the multicast band.
const multicastEpoch = 256

// arbitrate rotates band ownership between cache clusters with pending
// multicasts; ownership persists for multicastEpoch cycles once granted
// (the paper's coarse-grain amortization), but an owner with an empty
// queue yields immediately.
func (mc *mcChannel) arbitrate() {
	n := mc.n
	if mc.owner >= 0 && n.now < mc.epochEnd && len(mc.queues[mc.owner]) > 0 {
		mc.begin(mc.owner)
		return
	}
	k := len(mc.queues)
	for i := 1; i <= k; i++ {
		c := ((mc.owner+i)%k + k) % k
		if len(mc.queues[c]) > 0 {
			mc.owner = c
			mc.epochEnd = n.now + multicastEpoch
			mc.begin(c)
			return
		}
	}
}

// begin pops the next multicast of cluster c into transmission.
func (mc *mcChannel) begin(c int) {
	e := mc.queues[c][0]
	mc.queues[c] = mc.queues[c][1:]
	mc.cur = &e
	mc.flitsSent = 0
	mc.activeRx = mc.activeRx[:0]
	for _, rx := range mc.receivers {
		for _, ci := range mc.served[rx] {
			if e.msg.DBV&(1<<uint(ci)) != 0 {
				mc.activeRx = append(mc.activeRx, rx)
				break
			}
		}
	}
}

// transmitFlit sends one flit of the in-flight multicast; receivers see
// it one cycle later (single-cycle RF-I link traversal).
func (mc *mcChannel) transmitFlit() {
	n := mc.n
	flitBits := int64(n.cfg.Width.Bits())
	arrival := n.now + 1
	if mc.flitsSent == 0 {
		// DBV flit: every tuned receiver must decode it to decide whether
		// to gate.
		n.stats.RFMulticastBits += flitBits
		n.stats.RFMulticastRxBits += flitBits * int64(len(mc.receivers))
		mc.deliverStart(arrival)
		mc.flitsSent++
		return
	}
	n.stats.RFMulticastBits += flitBits
	n.stats.RFMulticastRxBits += flitBits * int64(len(mc.activeRx))
	n.stats.RFGatedRxFlits += int64(len(mc.receivers) - len(mc.activeRx))
	mc.flitsSent++
	if mc.flitsSent == mc.cur.numFlits+1 {
		mc.finish(arrival)
	}
}

// deliverStart begins local distribution at each active receiver as soon
// as the DBV flit arrives: remote cores get a mesh packet injected at the
// receiver router; same-router cores are recorded when the tail arrives.
func (mc *mcChannel) deliverStart(dbvArrival int64) {
	n := mc.n
	cores := n.cfg.Mesh.Cores()
	e := mc.cur
	tailArrival := dbvArrival + int64(e.numFlits)
	for _, rx := range mc.activeRx {
		for _, ci := range mc.served[rx] {
			if e.msg.DBV&(1<<uint(ci)) == 0 {
				continue
			}
			dst := cores[ci]
			if dst == rx {
				lp := n.newPacket()
				lp.msg = e.msg
				lp.numFlits = e.numFlits
				lp.deliverCore = ci
				mc.pendingLocal = append(mc.pendingLocal, localDelivery{
					at: tailArrival, pkt: lp,
				})
				continue
			}
			// Remote core: forward the message over the mesh from the
			// receiver. Flits are duplicated as they are received, so
			// injection starts right after the DBV flit decodes.
			fwd := e.msg
			fwd.Multicast = false
			fwd.Src = rx
			fwd.Dst = dst
			p := n.newPacket()
			p.msg = fwd
			p.numFlits = e.numFlits
			p.deliverCore = ci
			n.enqueueFront(rx, p)
		}
	}
}

func (mc *mcChannel) finish(int64) {
	mc.cur = nil
	mc.flitsSent = 0
}

// vctTable models the per-source virtual-circuit-tree tables of the VCT
// baseline: a bounded set of (source, destination-set) trees with FIFO
// eviction. A lookup miss means the tree must be built, which charges the
// packet a per-router setup penalty.
type vctTable struct {
	keys map[vctKey]bool
	fifo []vctKey
}

// vctTableSize bounds the number of trees the VCT table holds; the
// oldest is evicted first. The bound covers the whole table, every source
// together.
const vctTableSize = 64

type vctKey struct {
	src int
	dbv uint64
}

func newVCTTable() *vctTable {
	return &vctTable{keys: map[vctKey]bool{}}
}

// lookup returns true when the tree must be set up (miss) and installs it.
func (t *vctTable) lookup(src int, dbv uint64) bool {
	k := vctKey{src, dbv}
	if t.keys[k] {
		return false
	}
	if len(t.fifo) >= vctTableSize {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		delete(t.keys, old)
	}
	t.keys[k] = true
	t.fifo = append(t.fifo, k)
	return true
}

// Entries returns the number of live trees (for area accounting).
func (t *vctTable) Entries() int { return len(t.keys) }
