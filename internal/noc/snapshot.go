package noc

// This file implements deterministic checkpoint/restore of a running
// Network (internal/checkpoint's State interface). The snapshot captures
// every bit of dynamic state that influences future cycles — router and
// VC occupancy (including round-robin arbitration order and the active
// lists), in-flight wormholes on the timing wheel, NI queues and feeding
// streams, the RF multicast channel, the VCT tree table, the fault
// bookkeeping including its RNG stream, the currently installed shortcut
// plan, and all statistics — such that a restored network continues
// bit-identical to the uninterrupted run.
//
// Derived state is rebuilt rather than serialized: routing tables, the
// escape spanning tree, and the multicast receiver assignment all
// recompute deterministically from the configuration plus the restored
// fault record. Observers are NOT part of the snapshot; re-attach them
// after restoring (obs recorders resume from the restore point with
// empty histories).
//
// A snapshot carries a fingerprint of the static configuration
// (everything except the runtime-mutable shortcut plan, which is
// serialized as state); restoring into a differently-configured network
// is refused. Restore targets a freshly constructed New(cfg) network;
// on error the target is left in an undefined state and must be
// discarded.

import (
	"fmt"
	"hash/crc64"
	"math"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/shortcut"
)

// snapshotVersion is the Network blob's format version. Bump on any
// layout change; old versions are refused, not migrated (the
// compatibility policy in DESIGN.md).
const snapshotVersion = 2

var fpTable = crc64.MakeTable(crc64.ECMA)

// fingerprint hashes the static configuration a snapshot is only valid
// for. The shortcut plan is excluded: Reconfigure mutates it at runtime,
// so the installed plan travels as state instead.
func (n *Network) fingerprint() uint64 {
	e := checkpoint.NewEncoder()
	c := n.cfg
	e.Int(c.Mesh.W)
	e.Int(c.Mesh.H)
	e.Int(int(c.Width))
	e.Int(c.VCsPerClass)
	e.Int(c.BufDepth)
	e.I64(c.EscapeTimeout)
	e.Bool(c.WireShortcuts)
	e.IntSlice(c.RFEnabled)
	e.Int(int(c.Multicast))
	e.IntSlice(c.MulticastReceivers)
	e.I64(c.MulticastEpoch)
	e.Int(c.VCTTableSize)
	e.F64(c.WireMMPerCycle)
	e.Int(c.LocalSpeedup)
	e.Int(c.ShortcutWidthBytes)
	e.F64(c.Fault.MeshBER)
	e.F64(c.Fault.RFBER)
	e.Int(c.Fault.RetryLimit)
	e.I64(c.Fault.BackoffBase)
	e.I64(c.Fault.BackoffMax)
	e.I64(c.Fault.Seed)
	e.F64(c.Fault.MisrouteRate)
	e.F64(c.Fault.MisdeliverRate)
	e.F64(c.Fault.DuplicateRate)
	e.F64(c.Fault.CreditLeakRate)
	e.F64(c.Fault.StuckVCRate)
	e.Bool(c.Integrity)
	e.Bool(c.Watchdog.Enabled)
	e.I64(c.Watchdog.CheckEvery)
	e.I64(c.Watchdog.StallHorizon)
	e.I64(c.Watchdog.Grace)
	e.Bool(c.AdaptiveRouting)
	blob, _ := e.Bytes()
	return crc64.Checksum(blob, fpTable)
}

// CheckpointState implements checkpoint.State.
func (n *Network) CheckpointState() ([]byte, error) {
	e := checkpoint.NewEncoder()
	e.Byte(snapshotVersion)
	e.U64(n.fingerprint())
	e.I64(n.now)
	e.I64(n.inFlightPackets)
	e.Bool(n.mcDead)
	encodeStats(e, &n.stats)

	// The installed shortcut plan (may differ from the construction-time
	// plan after Reconfigure).
	e.Int(len(n.cfg.Shortcuts))
	for _, edge := range n.cfg.Shortcuts {
		e.Int(edge.From)
		e.Int(edge.To)
	}

	for _, row := range n.freq {
		e.Bool(row != nil)
		if row != nil {
			e.I64Slice(row)
		}
	}
	for r := range n.linkUse {
		for p := 0; p < numPorts; p++ {
			e.I64(n.linkUse[r][p])
		}
	}

	// Deduplicated packet table: shared *packet references (a VC and a
	// wheel transfer naming the same wormhole) serialize once and restore
	// to one object, preserving pointer identity.
	table, index := n.collectPackets()
	e.Int(len(table))
	for _, p := range table {
		encodePacket(e, p)
	}

	pktIdx := func(p *packet) int {
		if p == nil {
			return -1
		}
		return index[p]
	}
	for r := range n.routers {
		rs := &n.routers[r]
		// The NI queues pop by head index; only the live window
		// serializes (restore resets the head to zero), keeping the byte
		// format identical to pre-head-index snapshots.
		q := rs.queue[rs.qhead:]
		e.Int(len(q))
		for _, p := range q {
			e.Int(pktIdx(p))
		}
		rq := rs.reinject[rs.rhead:]
		e.Int(len(rq))
		for _, p := range rq {
			e.Int(pktIdx(p))
		}
		e.Int(rs.rrOffset)
		e.Int(len(rs.feedings))
		for _, f := range rs.feedings {
			e.Int(int(f.vc.port))
			e.Int(int(f.vc.idx))
			e.Int(f.fed)
		}
		// The active list in order: round-robin switch allocation walks
		// it, so its order is determinism-bearing.
		e.Int(len(rs.active))
		for _, vc := range rs.active {
			e.Int(int(vc.port))
			e.Int(int(vc.idx))
		}
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				encodeVC(e, vc, pktIdx)
			}
		}
	}

	// The timing wheel, slot order preserved (arrival processing order
	// feeds the active lists).
	for s := 0; s < wheelSize; s++ {
		slot := n.wheel[s]
		e.Int(len(slot))
		for _, t := range slot {
			e.Int(t.to.router.id)
			e.Int(int(t.to.port))
			e.Int(int(t.to.idx))
			e.Int(pktIdx(t.pkt))
			e.Bool(t.isHead)
			e.Bool(t.isTail)
		}
	}

	e.Bool(n.mc != nil)
	if n.mc != nil {
		encodeMC(e, n.mc, pktIdx)
	}
	e.Bool(n.vct != nil)
	if n.vct != nil {
		e.Int(len(n.vct.fifo))
		for _, k := range n.vct.fifo {
			e.Int(k.src)
			e.U64(k.dbv)
		}
	}
	e.Bool(n.faults != nil)
	if n.faults != nil {
		if err := encodeFaults(e, n.faults); err != nil {
			return nil, err
		}
	}
	e.Bool(n.integ != nil)
	if n.integ != nil {
		encodeIntegrity(e, n.integ)
	}
	e.Int(n.wd.stage)
	e.I64(n.wd.lastAction)
	return e.Bytes()
}

// collectPackets walks every live *packet reference in deterministic
// order and assigns each unique pointer an index.
func (n *Network) collectPackets() ([]*packet, map[*packet]int) {
	var table []*packet
	index := map[*packet]int{}
	add := func(p *packet) {
		if p == nil {
			return
		}
		if _, ok := index[p]; ok {
			return
		}
		index[p] = len(table)
		table = append(table, p)
	}
	for r := range n.routers {
		rs := &n.routers[r]
		for _, p := range rs.queue[rs.qhead:] {
			add(p)
		}
		for _, p := range rs.reinject[rs.rhead:] {
			add(p)
		}
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				add(vc.pkt)
			}
		}
	}
	for s := 0; s < wheelSize; s++ {
		for _, t := range n.wheel[s] {
			add(t.pkt)
		}
	}
	if n.mc != nil {
		for _, ld := range n.mc.pendingLocal {
			add(ld.pkt)
		}
	}
	return table, index
}

func encodeMsg(e *checkpoint.Encoder, m Message) {
	e.Int(m.Src)
	e.Int(m.Dst)
	e.Int(int(m.Class))
	e.I64(m.Inject)
	e.Bool(m.Multicast)
	e.U64(m.DBV)
}

func encodePacket(e *checkpoint.Encoder, p *packet) {
	encodeMsg(e, p.msg)
	e.Int(p.numFlits)
	e.Int(p.class)
	e.Int(p.hops)
	e.Int(p.ejected)
	e.Bool(p.destSet != nil)
	if p.destSet != nil {
		e.IntSlice(p.destSet)
	}
	e.Bool(p.vctSetup)
	e.Int(p.deliverCore)
	e.Bool(p.mcFwd != nil)
	if p.mcFwd != nil {
		e.Int(p.mcFwd.cluster)
		encodeMsg(e, p.mcFwd.entry.msg)
		e.Int(p.mcFwd.entry.numFlits)
	}
	e.Bool(p.hasSeq)
	e.U64(p.seq)
	e.U64(p.sum)
	e.Int(p.attempt)
}

func encodeVC(e *checkpoint.Encoder, vc *vcState, pktIdx func(*packet) int) {
	idle := vc.pkt == nil && !vc.reserved && vc.incoming == 0 &&
		vc.count == 0 && vc.phase == phaseIdle &&
		vc.leaked == 0 && !vc.stuck
	e.Bool(!idle)
	if idle {
		return
	}
	e.Int(pktIdx(vc.pkt))
	e.Bool(vc.reserved)
	e.Int(int(vc.incoming))
	e.Int(int(vc.count))
	for i := int32(0); i < vc.count; i++ {
		s := *vc.slot(i)
		e.I64(s.eligibleAt())
		e.Bool(s.isHead())
		e.Bool(s.isTail())
	}
	e.Byte(byte(vc.phase))
	e.Int(int(vc.ncands))
	for _, c := range vc.candidates() {
		e.Int(int(c))
	}
	e.I64(vc.arrivedAt)
	e.I64(int64(vc.rcExtra))
	e.I64(vc.vaFirstFail)
	e.Int(int(vc.outPort))
	if vc.outVC == nil {
		e.Int(-1)
	} else {
		e.Int(vc.outVC.router.id)
		e.Int(int(vc.outVC.port))
		e.Int(int(vc.outVC.idx))
	}
	e.Int(int(vc.sent))
	e.Int(int(vc.retries))
	e.Int(int(vc.leaked))
	e.Bool(vc.stuck)
}

func encodeMC(e *checkpoint.Encoder, mc *mcChannel, pktIdx func(*packet) int) {
	e.Int(len(mc.queues))
	for _, q := range mc.queues {
		e.Int(len(q))
		for _, entry := range q {
			encodeMsg(e, entry.msg)
			e.Int(entry.numFlits)
		}
	}
	e.Int(mc.owner)
	e.I64(mc.epochEnd)
	e.Bool(mc.cur != nil)
	if mc.cur != nil {
		encodeMsg(e, mc.cur.msg)
		e.Int(mc.cur.numFlits)
	}
	e.Int(mc.flitsSent)
	e.IntSlice(mc.activeRx)
	e.Int(len(mc.pendingLocal))
	for _, ld := range mc.pendingLocal {
		e.I64(ld.at)
		e.Int(pktIdx(ld.pkt))
	}
}

func encodeFaults(e *checkpoint.Encoder, fs *faultState) error {
	blob, err := fs.rng.MarshalBinary()
	if err != nil {
		return err
	}
	e.BytesField(blob)
	for _, b := range fs.shortcutDead {
		e.Bool(b)
	}
	for _, b := range fs.failedTx {
		e.Bool(b)
	}
	for _, b := range fs.failedRx {
		e.Bool(b)
	}
	e.Int(len(fs.failedEdges))
	for _, edge := range fs.failedEdges {
		e.Int(edge.From)
		e.Int(edge.To)
	}
	for r := range fs.meshDead {
		for p := 0; p < numPorts; p++ {
			e.Bool(fs.meshDead[r][p])
		}
	}
	e.Int(fs.meshFaults)
	e.Int(len(fs.pendingKills))
	for _, k := range fs.pendingKills {
		e.Int(k[0])
		e.Int(k[1])
	}
	return nil
}

// encodeIntegrity serializes the end-to-end integrity bookkeeping. The
// seen and outstanding maps are written in sorted key order so the blob
// is deterministic; the pending list keeps insertion order (it is
// scanned linearly, so order is determinism-bearing).
func encodeIntegrity(e *checkpoint.Encoder, ig *integrityState) {
	e.Int(len(ig.nextSeq))
	for _, s := range ig.nextSeq {
		e.U64(s)
	}
	sortKeys := func(keys []integrityKey) {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].src != keys[j].src {
				return keys[i].src < keys[j].src
			}
			return keys[i].seq < keys[j].seq
		})
	}
	seen := make([]integrityKey, 0, len(ig.seen))
	for k := range ig.seen {
		seen = append(seen, k)
	}
	sortKeys(seen)
	e.Int(len(seen))
	for _, k := range seen {
		e.Int(k.src)
		e.U64(k.seq)
	}
	out := make([]integrityKey, 0, len(ig.outstanding))
	for k := range ig.outstanding {
		out = append(out, k)
	}
	sortKeys(out)
	e.Int(len(out))
	for _, k := range out {
		e.Int(k.src)
		e.U64(k.seq)
		encodeMsg(e, ig.outstanding[k])
	}
	e.Int(len(ig.pending))
	for _, r := range ig.pending {
		e.I64(r.at)
		encodeMsg(e, r.msg)
		e.U64(r.seq)
		e.Int(r.attempt)
	}
}

func (n *Network) restoreIntegrity(d *checkpoint.Decoder) error {
	ig := n.integ
	N := n.cfg.Mesh.N()
	if sn := d.Int(); d.Err() == nil && sn != N {
		return fmt.Errorf("noc: snapshot has %d sequence counters, want %d", sn, N)
	}
	for i := range ig.nextSeq {
		ig.nextSeq[i] = d.U64()
	}
	readKey := func(what string) integrityKey {
		k := integrityKey{src: d.Int(), seq: d.U64()}
		if d.Err() == nil && (k.src < 0 || k.src >= N) {
			d.Fail(fmt.Errorf("noc: snapshot %s source router %d out of range", what, k.src))
		}
		return k
	}
	sn := d.Int()
	if d.Err() != nil || sn < 0 || sn > d.Remaining()/8 {
		d.Fail(fmt.Errorf("noc: implausible seen-set size %d", sn))
		return d.Err()
	}
	ig.seen = make(map[integrityKey]bool, sn)
	for i := 0; i < sn; i++ {
		ig.seen[readKey("seen entry")] = true
	}
	on := d.Int()
	if d.Err() != nil || on < 0 || on > d.Remaining()/8 {
		d.Fail(fmt.Errorf("noc: implausible outstanding-table size %d", on))
		return d.Err()
	}
	ig.outstanding = make(map[integrityKey]Message, on)
	for i := 0; i < on; i++ {
		k := readKey("outstanding entry")
		ig.outstanding[k] = n.decodeMsg(d)
	}
	pn := d.Int()
	if d.Err() != nil || pn < 0 || pn > d.Remaining()/8 {
		d.Fail(fmt.Errorf("noc: implausible pending-retransmission count %d", pn))
		return d.Err()
	}
	ig.pending = ig.pending[:0]
	for i := 0; i < pn; i++ {
		r := pendingRetx{at: d.I64(), msg: n.decodeMsg(d)}
		r.seq = d.U64()
		r.attempt = d.Int()
		if d.Err() == nil && r.attempt < 0 {
			return fmt.Errorf("noc: snapshot pending retransmission attempt %d negative", r.attempt)
		}
		ig.pending = append(ig.pending, r)
	}
	return d.Err()
}

func encodeStats(e *checkpoint.Encoder, s *Stats) {
	e.I64(s.Cycles)
	e.I64(s.PacketsInjected)
	e.I64(s.PacketsEjected)
	e.I64(s.FlitsInjected)
	e.I64(s.FlitsEjected)
	e.I64(s.PacketLatency)
	e.I64(s.FlitLatency)
	e.I64(s.HopSum)
	e.I64(s.RouterTraversals)
	e.I64(s.MeshFlitHops)
	e.I64(s.LocalFlitHops)
	e.F64(s.WireShortcutFlitMM)
	e.I64(s.RFShortcutBits)
	e.I64(s.RFMulticastBits)
	e.I64(s.RFMulticastRxBits)
	e.I64(s.RFGatedRxFlits)
	e.I64(s.MulticastMessages)
	e.I64(s.MulticastDeliveries)
	e.I64(s.MulticastLatency)
	e.I64(s.MulticastFlitsDelivered)
	e.I64(s.MulticastFlitLatency)
	e.I64(s.VCTHits)
	e.I64(s.VCTMisses)
	e.I64(s.EscapeSwitches)
	e.I64(s.FlitsCorrupted)
	e.I64(s.Retransmits)
	e.I64(s.LinkFailures)
	e.I64(s.DegradedReroutes)
	e.I64(s.Reconfigurations)
	e.I64(s.ReconfigUpdateCycles)
	e.I64(s.MisroutedPackets)
	e.I64(s.MisdeliveredPackets)
	e.I64(s.DuplicatesInjected)
	e.I64(s.CreditLeaks)
	e.I64(s.StuckVCs)
	e.I64(s.DuplicatesDropped)
	e.I64(s.ChecksumFailures)
	e.I64(s.IntegrityRetransmits)
	e.I64(s.PacketsLost)
	e.I64(s.WatchdogRecoveries)
	e.I64(s.RecoveryCreditRepairs)
	e.I64(s.RecoveryVCUnsticks)
	e.I64(s.RecoveryEscapes)
	e.I64(s.RecoveryReinjections)
	e.I64(s.FlitsScrubbed)
	e.I64Slice(s.MsgsByDistance)
}

// RestoreCheckpointState implements checkpoint.State. The receiver must
// be a freshly constructed network with the same static configuration
// the snapshot was taken under (the fingerprint is checked). Attached
// observers survive the restore. On error the network's state is
// undefined; discard it.
func (n *Network) RestoreCheckpointState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	if v := d.Byte(); d.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("noc: snapshot version %d not supported (want %d)", v, snapshotVersion)
	}
	if fp := d.U64(); d.Err() == nil && fp != n.fingerprint() {
		return fmt.Errorf("noc: snapshot fingerprint mismatch: the checkpoint was taken under a different configuration")
	}
	n.now = d.I64()
	n.inFlightPackets = d.I64()
	n.mcDead = d.Bool()
	decodeStats(d, &n.stats)
	if len(n.stats.MsgsByDistance) != n.cfg.Mesh.W+n.cfg.Mesh.H-1 {
		d.Fail(fmt.Errorf("noc: snapshot distance histogram has %d buckets", len(n.stats.MsgsByDistance)))
	}
	if err := n.restorePlan(d); err != nil {
		return err
	}

	N := n.cfg.Mesh.N()
	for r := 0; r < N; r++ {
		if d.Bool() {
			row := d.I64Slice()
			if len(row) != N && d.Err() == nil {
				return fmt.Errorf("noc: snapshot frequency row %d has %d entries, want %d", r, len(row), N)
			}
			n.freq[r] = row
		} else {
			n.freq[r] = nil
		}
	}
	for r := 0; r < N; r++ {
		for p := 0; p < numPorts; p++ {
			n.linkUse[r][p] = d.I64()
		}
	}

	table, err := n.decodePackets(d)
	if err != nil {
		return err
	}
	pktAt := func(what string) *packet {
		i := d.Int()
		if i == -1 {
			return nil
		}
		if i < 0 || i >= len(table) {
			d.Fail(fmt.Errorf("noc: snapshot %s references packet %d of %d", what, i, len(table)))
			return nil
		}
		return table[i]
	}

	if err := n.restoreRouters(d, pktAt); err != nil {
		return err
	}
	if err := n.restoreWheel(d, pktAt); err != nil {
		return err
	}

	if hasMC := d.Bool(); d.Err() == nil && hasMC != (n.mc != nil) {
		return fmt.Errorf("noc: snapshot multicast-channel presence does not match the configuration")
	}
	if n.mc != nil {
		if err := n.restoreMC(d, pktAt); err != nil {
			return err
		}
	}
	if hasVCT := d.Bool(); d.Err() == nil && hasVCT != (n.vct != nil) {
		return fmt.Errorf("noc: snapshot VCT-table presence does not match the configuration")
	}
	if n.vct != nil {
		if err := n.restoreVCT(d); err != nil {
			return err
		}
	}
	hasFaults := d.Bool()
	if d.Err() == nil && !hasFaults && n.cfg.Fault.enabled() {
		return fmt.Errorf("noc: snapshot lacks fault state for a fault-enabled configuration")
	}
	if hasFaults && d.Err() == nil {
		if err := n.restoreFaults(d); err != nil {
			return err
		}
	} else {
		n.faults = nil
	}
	if hasInteg := d.Bool(); d.Err() == nil && hasInteg != (n.integ != nil) {
		return fmt.Errorf("noc: snapshot integrity-layer presence does not match the configuration")
	}
	if n.integ != nil {
		if err := n.restoreIntegrity(d); err != nil {
			return err
		}
	}
	n.wd.stage = d.Int()
	n.wd.lastAction = d.I64()
	if d.Err() == nil && (n.wd.stage < 0 || n.wd.stage > 3) {
		return fmt.Errorf("noc: snapshot watchdog stage %d out of range", n.wd.stage)
	}
	if err := d.Finish(); err != nil {
		return err
	}
	// Derived state: routing tables over the restored plan and fault
	// record (the escape tree was rebuilt inside restoreFaults), and the
	// active-NI list (not serialized; NI processing is per-router
	// independent, so rebuilding it in router order is equivalent).
	n.routes = buildRoutes(n)
	n.niActive = n.niActive[:0]
	for r := range n.routers {
		rs := &n.routers[r]
		rs.niListed = false
		if rs.nextPacket() != nil || len(rs.feedings) > 0 {
			rs.niListed = true
			n.niActive = append(n.niActive, r)
		}
	}
	return nil
}

// restorePlan reads and installs the runtime shortcut plan.
func (n *Network) restorePlan(d *checkpoint.Decoder) error {
	cnt := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	N := n.cfg.Mesh.N()
	if cnt < 0 || cnt > N {
		return fmt.Errorf("noc: snapshot has %d shortcut edges on a %d-router mesh", cnt, N)
	}
	edges := make([]shortcut.Edge, cnt)
	for i := range edges {
		edges[i] = shortcut.Edge{From: d.Int(), To: d.Int()}
	}
	if d.Err() != nil {
		return d.Err()
	}
	// Structural validation only (the fresh receiver has no fault record
	// yet); shared with Reconfigure.
	if err := n.validateShortcutSet(edges); err != nil {
		return fmt.Errorf("noc: snapshot shortcut plan invalid: %w", err)
	}
	for i := range n.shortcutFrom {
		n.shortcutFrom[i] = -1
		n.shortcutTo[i] = -1
		n.shortcutLat[i] = 0
	}
	for _, e := range edges {
		n.shortcutFrom[e.From] = e.To
		n.shortcutTo[e.To] = e.From
		n.shortcutLat[e.From] = n.shortcutLatency(e)
	}
	n.cfg.Shortcuts = edges
	return nil
}

func (n *Network) decodePackets(d *checkpoint.Decoder) ([]*packet, error) {
	cnt := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	// Every table entry consumes at least ~40 bytes; a loose per-entry
	// floor of 8 keeps corrupt counts from allocating wildly.
	if cnt < 0 || cnt > d.Remaining()/8 {
		return nil, fmt.Errorf("noc: implausible snapshot packet count %d", cnt)
	}
	table := make([]*packet, cnt)
	for i := range table {
		p, err := n.decodePacket(d)
		if err != nil {
			return nil, err
		}
		table[i] = p
	}
	return table, nil
}

func (n *Network) decodeMsg(d *checkpoint.Decoder) Message {
	m := Message{
		Src:   d.Int(),
		Dst:   d.Int(),
		Class: Class(d.Int()),
	}
	m.Inject = d.I64()
	m.Multicast = d.Bool()
	m.DBV = d.U64()
	if d.Err() == nil {
		N := n.cfg.Mesh.N()
		if m.Src < 0 || m.Src >= N || m.Dst < 0 || m.Dst >= N {
			d.Fail(fmt.Errorf("noc: snapshot message endpoints %d->%d out of range", m.Src, m.Dst))
		}
		if m.Class < Request || m.Class > Fill {
			d.Fail(fmt.Errorf("noc: snapshot message class %d unknown", int(m.Class)))
		}
	}
	return m
}

func (n *Network) decodePacket(d *checkpoint.Decoder) (*packet, error) {
	p := &packet{msg: n.decodeMsg(d)}
	p.numFlits = d.Int()
	p.class = d.Int()
	p.hops = d.Int()
	p.ejected = d.Int()
	if d.Bool() {
		p.destSet = d.IntSlice()
	}
	p.vctSetup = d.Bool()
	p.deliverCore = d.Int()
	if d.Bool() {
		fwd := &mcForward{cluster: d.Int()}
		fwd.entry.msg = n.decodeMsg(d)
		fwd.entry.numFlits = d.Int()
		p.mcFwd = fwd
	}
	p.hasSeq = d.Bool()
	p.seq = d.U64()
	p.sum = d.U64()
	p.attempt = d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if p.attempt < 0 {
		return nil, fmt.Errorf("noc: snapshot packet attempt count %d negative", p.attempt)
	}
	if p.hasSeq && n.integ == nil {
		return nil, fmt.Errorf("noc: snapshot integrity-tagged packet without the integrity layer")
	}
	N := n.cfg.Mesh.N()
	switch {
	case p.numFlits < 1 || p.ejected < 0 || p.ejected > p.numFlits || p.hops < 0:
		return nil, fmt.Errorf("noc: snapshot packet flit accounting invalid (%d flits, %d ejected, %d hops)", p.numFlits, p.ejected, p.hops)
	case p.class != vcClassNormal && p.class != vcClassEscape:
		return nil, fmt.Errorf("noc: snapshot packet VC class %d unknown", p.class)
	case p.deliverCore < -1 || p.deliverCore >= 64:
		return nil, fmt.Errorf("noc: snapshot packet delivery core %d out of range", p.deliverCore)
	}
	if p.destSet != nil && len(p.destSet) == 0 {
		return nil, fmt.Errorf("noc: snapshot forking packet has an empty destination set")
	}
	for _, dst := range p.destSet {
		if dst < 0 || dst >= N {
			return nil, fmt.Errorf("noc: snapshot packet destination router %d out of range", dst)
		}
	}
	if p.mcFwd != nil {
		if n.mc == nil {
			return nil, fmt.Errorf("noc: snapshot central-bank forward without a multicast channel")
		}
		if p.mcFwd.cluster < 0 || p.mcFwd.cluster >= len(n.mc.queues) {
			return nil, fmt.Errorf("noc: snapshot central-bank forward to cluster %d of %d", p.mcFwd.cluster, len(n.mc.queues))
		}
		if p.mcFwd.entry.numFlits < 1 {
			return nil, fmt.Errorf("noc: snapshot central-bank forward carries %d flits", p.mcFwd.entry.numFlits)
		}
	}
	return p, nil
}

// vcRef resolves a (port, idx) pair within router rs, bounds-checked.
func (n *Network) vcRef(d *checkpoint.Decoder, rs *routerState, what string) *vcState {
	port := d.Int()
	idx := d.Int()
	if d.Err() != nil {
		return nil
	}
	if port < 0 || port >= numPorts || idx < 0 || idx >= len(rs.vcs[port]) {
		d.Fail(fmt.Errorf("noc: snapshot %s references VC %d/%d at router %d", what, port, idx, rs.id))
		return nil
	}
	return rs.vcs[port][idx]
}

func (n *Network) restoreRouters(d *checkpoint.Decoder, pktAt func(string) *packet) error {
	for r := range n.routers {
		rs := &n.routers[r]
		qn := d.Int()
		if d.Err() != nil || qn < 0 || qn > d.Remaining()/8 {
			d.Fail(fmt.Errorf("noc: implausible NI queue length %d", qn))
			return d.Err()
		}
		rs.queue = rs.queue[:0]
		rs.qhead = 0
		for i := 0; i < qn; i++ {
			if p := pktAt("NI queue"); p != nil {
				rs.queue = append(rs.queue, p)
			}
		}
		rn := d.Int()
		if d.Err() != nil || rn < 0 || rn > d.Remaining()/8 {
			d.Fail(fmt.Errorf("noc: implausible reinjection queue length %d", rn))
			return d.Err()
		}
		rs.reinject = rs.reinject[:0]
		rs.rhead = 0
		for i := 0; i < rn; i++ {
			if p := pktAt("reinjection queue"); p != nil {
				rs.reinject = append(rs.reinject, p)
			}
		}
		rs.rrOffset = d.Int()
		fn := d.Int()
		if d.Err() != nil || fn < 0 || fn > n.cfg.LocalSpeedup {
			d.Fail(fmt.Errorf("noc: snapshot has %d NI feedings at router %d", fn, r))
			return d.Err()
		}
		rs.feedings = rs.feedings[:0]
		for i := 0; i < fn; i++ {
			vc := n.vcRef(d, rs, "NI feeding")
			fed := d.Int()
			if d.Err() != nil {
				return d.Err()
			}
			if vc.pkt == nil && vc.port != portLocal {
				// The pkt pointer is restored below; only structural checks
				// here.
			}
			rs.feedings = append(rs.feedings, feeding{vc: vc, fed: fed})
		}
		an := d.Int()
		if d.Err() != nil || an < 0 || an > d.Remaining()/8 {
			d.Fail(fmt.Errorf("noc: implausible active-list length %d", an))
			return d.Err()
		}
		rs.active = rs.active[:0]
		for i := 0; i < an; i++ {
			vc := n.vcRef(d, rs, "active list")
			if d.Err() != nil {
				return d.Err()
			}
			if vc.inActive {
				return fmt.Errorf("noc: snapshot lists VC %d/%d at router %d active twice", vc.port, vc.idx, r)
			}
			vc.inActive = true
			rs.active = append(rs.active, vc)
		}
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				if err := n.restoreVC(d, vc, pktAt); err != nil {
					return err
				}
			}
		}
	}
	return d.Err()
}

func (n *Network) restoreVC(d *checkpoint.Decoder, vc *vcState, pktAt func(string) *packet) error {
	// Reset to idle first; every field is then overwritten or valid.
	inActive := vc.inActive // set by the active-list pass
	*vc = vcState{
		router: vc.router, port: vc.port, idx: vc.idx, class: vc.class,
		base: vc.base, inActive: inActive, vaFirstFail: -1,
	}
	if !d.Bool() {
		return d.Err()
	}
	vc.pkt = pktAt("VC")
	vc.reserved = d.Bool()
	incoming := d.Int()
	cnt := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	depth := int(vc.depth())
	if incoming < 0 || cnt < 0 || cnt > depth || incoming+cnt > depth {
		return fmt.Errorf("noc: snapshot VC buffer accounting invalid (%d buffered, %d incoming, depth %d)", cnt, incoming, depth)
	}
	vc.incoming = int32(incoming)
	for i := 0; i < cnt; i++ {
		at := d.I64()
		s := newFlitSlot(at, d.Bool(), d.Bool())
		if d.Err() != nil {
			return d.Err()
		}
		if s.eligibleAt() != at {
			return fmt.Errorf("noc: snapshot flit eligibility cycle %d out of range", at)
		}
		vc.push(s)
	}
	phase := vcPhase(d.Byte())
	if d.Err() == nil && (phase < phaseIdle || phase > phaseActive) {
		return fmt.Errorf("noc: snapshot VC phase %d unknown", int(phase))
	}
	vc.phase = phase
	cn := d.Int()
	if d.Err() != nil || cn < 0 || cn > numPorts {
		d.Fail(fmt.Errorf("noc: snapshot VC has %d adaptive candidates", cn))
		return d.Err()
	}
	for i := 0; i < cn; i++ {
		c := d.Int()
		if d.Err() == nil && (c < 0 || c >= numPorts) {
			return fmt.Errorf("noc: snapshot adaptive candidate port %d invalid", c)
		}
		vc.cands[vc.ncands] = int8(c)
		vc.ncands++
	}
	vc.arrivedAt = d.I64()
	rcExtra := d.I64()
	if d.Err() == nil && (rcExtra < 0 || rcExtra > math.MaxInt8) {
		return fmt.Errorf("noc: snapshot VC route-computation delay %d out of range", rcExtra)
	}
	vc.rcExtra = int8(rcExtra)
	vc.vaFirstFail = d.I64()
	outPort := d.Int()
	if d.Err() == nil && (outPort < 0 || outPort >= numPorts) {
		return fmt.Errorf("noc: snapshot VC output port %d invalid", outPort)
	}
	vc.outPort = int8(outPort)
	or := d.Int()
	if or != -1 {
		if d.Err() == nil && (or < 0 || or >= len(n.routers)) {
			return fmt.Errorf("noc: snapshot downstream VC router %d out of range", or)
		}
		if d.Err() == nil {
			vc.outVC = n.vcRef(d, &n.routers[or], "downstream VC")
		}
	}
	sent, retries := d.Int(), d.Int()
	if d.Err() == nil && (sent < 0 || retries < 0) {
		return fmt.Errorf("noc: snapshot VC progress counters negative")
	}
	if d.Err() == nil && (sent > math.MaxInt32 || retries > math.MaxInt32) {
		return fmt.Errorf("noc: snapshot VC progress counters out of range")
	}
	vc.sent, vc.retries = int32(sent), int32(retries)
	leaked := d.Int()
	vc.stuck = d.Bool()
	if d.Err() == nil && (leaked < 0 || cnt+incoming+leaked > depth) {
		return fmt.Errorf("noc: snapshot VC credit accounting invalid (%d buffered, %d incoming, %d leaked, depth %d)",
			cnt, incoming, leaked, depth)
	}
	vc.leaked = int32(leaked)
	return d.Err()
}

func (n *Network) restoreWheel(d *checkpoint.Decoder, pktAt func(string) *packet) error {
	for s := 0; s < wheelSize; s++ {
		cnt := d.Int()
		if d.Err() != nil || cnt < 0 || cnt > d.Remaining()/8 {
			d.Fail(fmt.Errorf("noc: implausible wheel slot length %d", cnt))
			return d.Err()
		}
		n.wheel[s] = n.wheel[s][:0]
		for i := 0; i < cnt; i++ {
			tr := d.Int()
			if d.Err() == nil && (tr < 0 || tr >= len(n.routers)) {
				return fmt.Errorf("noc: snapshot wheel transfer targets router %d", tr)
			}
			if d.Err() != nil {
				return d.Err()
			}
			to := n.vcRef(d, &n.routers[tr], "wheel transfer")
			t := transfer{to: to, pkt: pktAt("wheel transfer")}
			t.isHead = d.Bool()
			t.isTail = d.Bool()
			if d.Err() != nil {
				return d.Err()
			}
			if t.isHead && t.pkt == nil {
				return fmt.Errorf("noc: snapshot head-flit transfer carries no packet")
			}
			n.wheel[s] = append(n.wheel[s], t)
		}
	}
	return d.Err()
}

func (n *Network) restoreMC(d *checkpoint.Decoder, pktAt func(string) *packet) error {
	mc := n.mc
	qn := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if qn != len(mc.queues) {
		return fmt.Errorf("noc: snapshot has %d multicast clusters, want %d", qn, len(mc.queues))
	}
	decodeEntry := func() (mcEntry, error) {
		e := mcEntry{msg: n.decodeMsg(d)}
		e.numFlits = d.Int()
		if d.Err() == nil && e.numFlits < 1 {
			return e, fmt.Errorf("noc: snapshot multicast entry carries %d flits", e.numFlits)
		}
		return e, d.Err()
	}
	for c := range mc.queues {
		en := d.Int()
		if d.Err() != nil || en < 0 || en > d.Remaining()/8 {
			d.Fail(fmt.Errorf("noc: implausible multicast queue length %d", en))
			return d.Err()
		}
		mc.queues[c] = mc.queues[c][:0]
		for i := 0; i < en; i++ {
			entry, err := decodeEntry()
			if err != nil {
				return err
			}
			mc.queues[c] = append(mc.queues[c], entry)
		}
	}
	mc.owner = d.Int()
	mc.epochEnd = d.I64()
	if d.Err() == nil && (mc.owner < -1 || mc.owner >= len(mc.queues)) {
		return fmt.Errorf("noc: snapshot multicast band owner %d out of range", mc.owner)
	}
	mc.cur = nil
	if d.Bool() {
		entry, err := decodeEntry()
		if err != nil {
			return err
		}
		mc.cur = &entry
	}
	mc.flitsSent = d.Int()
	mc.activeRx = d.IntSlice()
	for _, rx := range mc.activeRx {
		if rx < 0 || rx >= n.cfg.Mesh.N() {
			return fmt.Errorf("noc: snapshot multicast receiver %d out of range", rx)
		}
	}
	pn := d.Int()
	if d.Err() != nil || pn < 0 || pn > d.Remaining()/8 {
		d.Fail(fmt.Errorf("noc: implausible pending-delivery count %d", pn))
		return d.Err()
	}
	mc.pendingLocal = mc.pendingLocal[:0]
	for i := 0; i < pn; i++ {
		ld := localDelivery{at: d.I64(), pkt: pktAt("local delivery")}
		if d.Err() != nil {
			return d.Err()
		}
		if ld.pkt == nil {
			return fmt.Errorf("noc: snapshot local delivery carries no packet")
		}
		mc.pendingLocal = append(mc.pendingLocal, ld)
	}
	return d.Err()
}

func (n *Network) restoreVCT(d *checkpoint.Decoder) error {
	cnt := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if cnt < 0 || cnt > n.vct.size {
		return fmt.Errorf("noc: snapshot VCT table holds %d trees, capacity %d", cnt, n.vct.size)
	}
	n.vct.fifo = n.vct.fifo[:0]
	n.vct.keys = make(map[vctKey]bool, cnt)
	for i := 0; i < cnt; i++ {
		k := vctKey{src: d.Int(), dbv: d.U64()}
		if d.Err() != nil {
			return d.Err()
		}
		if n.vct.keys[k] {
			return fmt.Errorf("noc: snapshot VCT table repeats a tree")
		}
		n.vct.keys[k] = true
		n.vct.fifo = append(n.vct.fifo, k)
	}
	return nil
}

func (n *Network) restoreFaults(d *checkpoint.Decoder) error {
	fs := n.ensureFaults()
	blob := d.BytesField()
	if d.Err() != nil {
		return d.Err()
	}
	if err := fs.rng.UnmarshalBinary(blob); err != nil {
		return fmt.Errorf("noc: snapshot fault RNG state: %w", err)
	}
	N := n.cfg.Mesh.N()
	for i := 0; i < N; i++ {
		fs.shortcutDead[i] = d.Bool()
	}
	for i := 0; i < N; i++ {
		fs.failedTx[i] = d.Bool()
	}
	for i := 0; i < N; i++ {
		fs.failedRx[i] = d.Bool()
	}
	en := d.Int()
	if d.Err() != nil || en < 0 || en > d.Remaining()/8 {
		d.Fail(fmt.Errorf("noc: implausible failed-edge count %d", en))
		return d.Err()
	}
	fs.failedEdges = fs.failedEdges[:0]
	for i := 0; i < en; i++ {
		e := shortcut.Edge{From: d.Int(), To: d.Int()}
		if d.Err() == nil && (e.From < 0 || e.From >= N || e.To < 0 || e.To >= N) {
			return fmt.Errorf("noc: snapshot failed edge %v out of range", e)
		}
		fs.failedEdges = append(fs.failedEdges, e)
	}
	deadLinks := 0
	for r := 0; r < N; r++ {
		for p := 0; p < numPorts; p++ {
			fs.meshDead[r][p] = d.Bool()
			if fs.meshDead[r][p] && p <= portWest {
				deadLinks++
			}
		}
	}
	fs.meshFaults = d.Int()
	if d.Err() == nil && (fs.meshFaults < 0 || fs.meshFaults*2 != deadLinks) {
		return fmt.Errorf("noc: snapshot mesh-fault count %d does not match %d dead port marks", fs.meshFaults, deadLinks)
	}
	kn := d.Int()
	if d.Err() != nil || kn < 0 || kn > d.Remaining()/8 {
		d.Fail(fmt.Errorf("noc: implausible pending-kill count %d", kn))
		return d.Err()
	}
	fs.pendingKills = fs.pendingKills[:0]
	for i := 0; i < kn; i++ {
		k := [2]int{d.Int(), d.Int()}
		if d.Err() == nil && (k[0] < 0 || k[0] >= N || k[1] < 0 || k[1] >= numPorts) {
			return fmt.Errorf("noc: snapshot pending kill %v out of range", k)
		}
		fs.pendingKills = append(fs.pendingKills, k)
	}
	if d.Err() != nil {
		return d.Err()
	}
	// Per-band death and hardware records must agree with the installed
	// plan enough for routing to stay sane; the determinism-bearing check
	// is mesh connectivity, which rebuildEscape asserts fatally — verify
	// first so a corrupt snapshot errors instead of panicking.
	if fs.meshFaults > 0 {
		if !n.meshConnected() {
			return fmt.Errorf("noc: snapshot mesh-fault record disconnects the mesh")
		}
		fs.rebuildEscape(n)
	} else {
		fs.escapeNext = nil
	}
	return nil
}

// meshConnected reports whether the surviving mesh reaches every router.
func (n *Network) meshConnected() bool {
	N := n.cfg.Mesh.N()
	seen := make([]bool, N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := portNorth; p <= portWest; p++ {
			w := neighborThrough(n, v, p)
			if w < 0 || seen[w] || n.faults.meshDead[v][p] {
				continue
			}
			seen[w] = true
			count++
			stack = append(stack, w)
		}
	}
	return count == N
}

func decodeStats(d *checkpoint.Decoder, s *Stats) {
	s.Cycles = d.I64()
	s.PacketsInjected = d.I64()
	s.PacketsEjected = d.I64()
	s.FlitsInjected = d.I64()
	s.FlitsEjected = d.I64()
	s.PacketLatency = d.I64()
	s.FlitLatency = d.I64()
	s.HopSum = d.I64()
	s.RouterTraversals = d.I64()
	s.MeshFlitHops = d.I64()
	s.LocalFlitHops = d.I64()
	s.WireShortcutFlitMM = d.F64()
	s.RFShortcutBits = d.I64()
	s.RFMulticastBits = d.I64()
	s.RFMulticastRxBits = d.I64()
	s.RFGatedRxFlits = d.I64()
	s.MulticastMessages = d.I64()
	s.MulticastDeliveries = d.I64()
	s.MulticastLatency = d.I64()
	s.MulticastFlitsDelivered = d.I64()
	s.MulticastFlitLatency = d.I64()
	s.VCTHits = d.I64()
	s.VCTMisses = d.I64()
	s.EscapeSwitches = d.I64()
	s.FlitsCorrupted = d.I64()
	s.Retransmits = d.I64()
	s.LinkFailures = d.I64()
	s.DegradedReroutes = d.I64()
	s.Reconfigurations = d.I64()
	s.ReconfigUpdateCycles = d.I64()
	s.MisroutedPackets = d.I64()
	s.MisdeliveredPackets = d.I64()
	s.DuplicatesInjected = d.I64()
	s.CreditLeaks = d.I64()
	s.StuckVCs = d.I64()
	s.DuplicatesDropped = d.I64()
	s.ChecksumFailures = d.I64()
	s.IntegrityRetransmits = d.I64()
	s.PacketsLost = d.I64()
	s.WatchdogRecoveries = d.I64()
	s.RecoveryCreditRepairs = d.I64()
	s.RecoveryVCUnsticks = d.I64()
	s.RecoveryEscapes = d.I64()
	s.RecoveryReinjections = d.I64()
	s.FlitsScrubbed = d.I64()
	s.MsgsByDistance = d.I64Slice()
}
