package noc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/shortcut"
)

// wheelSize bounds link latency +2; wire shortcuts across the 10x10 die
// take at most ceil(36mm/2.5mm) = 15 cycles.
const wheelSize = 32

// transfer is a flit in flight on a link.
type transfer struct {
	to     *vcState
	pkt    *packet // non-nil only for head flits
	isHead bool
	isTail bool
}

// Network is one simulated design point: a mesh of routers, the overlay
// links, the network interfaces, and the RF multicast channel.
type Network struct {
	cfg    Config
	now    int64
	stats  Stats
	routes *routeTable

	routers []routerState
	// vcArr, vcPtrs and slotArr back every router's VCs, VC pointers
	// and flit buffers (routerState.vcs and .slots are windows on them).
	vcArr   []vcState
	vcPtrs  []*vcState
	slotArr []flitSlot
	// live has bit r set while router r's active list is non-empty: Step
	// advances only those routers, in index order.
	live []uint64

	// portBudget[p] is how many flits port p moves per cycle in each
	// direction, and bufDepth every VC's buffer capacity in flits. Both
	// are fixed when the network is built (Reconfigure changes only the
	// shortcut set).
	portBudget [numPorts]int
	bufDepth   int32

	// shortcutFrom[r] is the destination router of r's outbound shortcut
	// (-1 if none); shortcutTo[r] is the source of its inbound shortcut.
	shortcutFrom []int
	shortcutTo   []int
	// shortcutLat[r] is the link-traversal latency in cycles of r's
	// outbound shortcut (1 for RF-I, length-proportional for wire).
	shortcutLat []int64

	// wheel holds in-flight flits indexed by arrival cycle % wheelSize.
	wheel [wheelSize][]transfer

	mc  *mcChannel
	vct *vctTable

	// linkUse[r][p] counts flits leaving router r through port p.
	linkUse [][numPorts]int64

	// freq[x][y] counts unicast messages injected x->y (the event
	// counters application-specific selection reads). A row is nil until
	// x first injects; it then takes its zeroed N entries from freqRows,
	// one N×N backing allocated at the first injection and kept by Reset.
	freq     [][]int64
	freqRows []int64

	// observers receive pipeline events (nil when observation is off, so
	// hot paths pay one branch).
	observers []Observer

	// faults is the fault-injection and recovery state (nil in a
	// fault-free world, so the hot path pays one pointer check). mcDead
	// marks the RF multicast band permanently failed.
	faults *faultState
	mcDead bool

	// integ is the end-to-end integrity state (nil unless
	// Config.Integrity); wd is the watchdog's stall tracking.
	integ *integrityState
	wd    watchdogState

	inFlightPackets int64 // injected (incl. internal) minus retired

	// Hot-path freelists and scratch (see pool.go): retired packets and
	// destination-set backings are recycled, mcGroups is the per-port
	// destination scratch of spawnMulticastChildren, and niActive lists
	// the routers whose NIs have queued or streaming packets so the
	// injection scan skips idle routers.
	pktPool  []*packet
	dsPool   [][]int
	mcGroups [numPorts][]int
	niActive []int
}

// routerState holds one router's input VCs, its NI queues and round-robin
// pointers.
type routerState struct {
	id int
	// vcs[port][idx]: input VCs. idx < VCsPerClass is the normal class,
	// the rest are escape VCs.
	vcs [numPorts][]*vcState
	// active input VCs (have a packet or a reservation); lazily pruned.
	active []*vcState
	// NI injection queues: reinject has priority (VCT fork children).
	// Both pop by advancing a head index over a reusable backing array
	// (slicing the front off would leak the backing's capacity and
	// reallocate on every later push). niListed marks membership in the
	// network's niActive list.
	queue    []*packet
	qhead    int
	reinject []*packet
	rhead    int
	niListed bool
	// packets currently being fed into local-port VCs by the NI (up to
	// LocalSpeedup concurrently), with per-VC fed-flit counts.
	feedings []feeding
	rrOffset int
	// slots holds the flit buffers of the router's input VCs, the
	// network's bufDepth flits each: a VC's ring buffer is
	// slots[base : base+bufDepth].
	slots []flitSlot
}

// feeding tracks one packet streaming from the NI into a local input VC.
type feeding struct {
	vc  *vcState
	fed int
}

// enlist adds a VC to its router's active list exactly once and marks
// the router live; arbitration prunes retired VCs lazily and clears the
// flag then, and the router's live bit once its list is empty.
func (n *Network) enlist(vc *vcState) {
	if !vc.inActive {
		vc.inActive = true
		rs := vc.router
		rs.active = append(rs.active, vc)
		n.live[rs.id>>6] |= 1 << (rs.id & 63)
	}
}

// vcPhase is the per-hop state of the packet occupying a VC.
type vcPhase int8

const (
	phaseIdle   vcPhase = iota
	phaseRC             // waiting for route computation (1 cycle after head arrival)
	phaseVA             // route known, waiting for a downstream VC
	phaseActive         // VC allocated; flits stream through SA
)

// vcState is one input virtual channel. A network keeps all of its VCs
// in one array and their flit buffers in another (see Reset); the
// fields are ordered and narrowed to keep the struct small, since it is
// most of a network's memory.
type vcState struct {
	router *routerState
	pkt    *packet
	outVC  *vcState // nil for eject/absorb

	arrivedAt   int64
	vaFirstFail int64

	// The ring buffer is router.slots[base : base+depth], depth being
	// the network's bufDepth; head indexes its front flit.
	base     int32
	head     int32
	count    int32
	incoming int32

	// sent counts flits of the current packet already sent downstream
	// (wormhole progress: a packet with sent > 0 cannot be re-routed).
	// retries counts consecutive corrupted transmissions of the front
	// flit; the link-layer retry budget is charged against it.
	sent    int32
	retries int32

	// leaked is the number of buffer credits this VC has silently lost
	// to the credit-leak fault (effective capacity shrinks by leaked
	// until the watchdog repairs it). stuck wedges the VC out of
	// arbitration entirely (stuck-VC fault; the watchdog unsticks it).
	leaked int32
	stuck  bool

	port    int8
	idx     int8
	class   int8
	outPort int8
	rcExtra int8 // extra RC cycles (VCT tree setup)

	phase    vcPhase
	reserved bool
	inActive bool // member of the router's active list

	// cands[:ncands] are the adaptive-routing minimal candidate ports.
	ncands int8
	cands  [numPorts]int8
}

// flitSlot is one buffered flit: the cycle it becomes switch-eligible
// and its head/tail marks, packed as eligibleAt<<2 | head<<1 | tail.
type flitSlot int64

func newFlitSlot(eligibleAt int64, head, tail bool) flitSlot {
	s := flitSlot(eligibleAt << 2)
	if head {
		s |= 2
	}
	if tail {
		s |= 1
	}
	return s
}

func (s flitSlot) eligibleAt() int64 { return int64(s >> 2) }
func (s flitSlot) isHead() bool      { return s&2 != 0 }
func (s flitSlot) isTail() bool      { return s&1 != 0 }

func (s *flitSlot) setEligibleAt(at int64) { *s = flitSlot(at<<2) | *s&3 }

// candidates returns the adaptive-routing candidate ports.
func (v *vcState) candidates() []int8 { return v.cands[:v.ncands] }

func (v *vcState) free() bool {
	return v.pkt == nil && !v.reserved && v.incoming == 0 && v.count == 0
}

// slot returns the i-th flit of the ring buffer, counting from the
// front. The ring-buffer methods take the network's bufDepth as depth;
// i < depth.
func (v *vcState) slot(i, depth int32) *flitSlot {
	j := v.head + i
	if j >= depth {
		j -= depth
	}
	return &v.router.slots[v.base+j]
}

func (v *vcState) space(depth int32) bool {
	return v.count+v.incoming+v.leaked < depth
}

func (v *vcState) push(s flitSlot, depth int32) {
	if v.count >= depth {
		panic("noc: VC buffer overflow")
	}
	*v.slot(v.count, depth) = s
	v.count++
}

func (v *vcState) front() *flitSlot {
	if v.count == 0 {
		return nil
	}
	return &v.router.slots[v.base+v.head]
}

func (v *vcState) pop(depth int32) flitSlot {
	s := v.router.slots[v.base+v.head]
	if v.head++; v.head == depth {
		v.head = 0
	}
	v.count--
	return s
}

// New builds a network for the given configuration. It panics on an
// invalid configuration; callers handling user input should use
// NewChecked instead.
func New(cfg Config) *Network {
	n, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// NewChecked builds a network for the given configuration, returning an
// error (every violation found, joined) instead of panicking when the
// configuration is invalid.
func NewChecked(cfg Config) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset re-initializes n for cfg, leaving it as NewChecked(cfg) would
// build it whatever state the last run left behind: undrained,
// interrupted, faulted or reconfigured. It keeps n's arrays where they
// fit instead of allocating new ones: the packet pools and the link
// wheel always; the routers, VCs and flit buffers when the mesh W×H,
// VCsPerClass and BufDepth match; the per-router counters when the mesh
// W×H matches; and the route table when it was built from exactly cfg's
// shortcut list on a fault-free mesh of the same W×H. Everything else —
// faults, integrity, multicast and VCT state, the watchdog, observers,
// statistics and the clock — starts as construction starts it.
//
// On an invalid cfg Reset returns every violation found and leaves n
// unchanged.
func (n *Network) Reset(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	m := cfg.Mesh
	N := m.N()
	old := n.cfg
	sameMesh := old.Mesh != nil && old.Mesh.W == m.W && old.Mesh.H == m.H
	sameVCs := sameMesh && old.VCsPerClass == cfg.VCsPerClass && old.BufDepth == cfg.BufDepth

	n.cfg = cfg
	n.now = 0
	n.bufDepth = int32(cfg.BufDepth)
	n.observers = nil
	n.faults = nil
	n.mcDead = false
	n.integ = nil
	n.wd = watchdogState{}
	n.mc = nil
	n.vct = nil
	n.inFlightPackets = 0
	n.mcGroups = [numPorts][]int{}
	n.niActive = emptied(n.niActive)
	for i := range n.wheel {
		n.wheel[i] = emptied(n.wheel[i])
	}
	if !sameMesh {
		n.live = make([]uint64, (N+63)/64)
		n.shortcutFrom = make([]int, N)
		n.shortcutTo = make([]int, N)
		n.shortcutLat = make([]int64, N)
		n.linkUse = make([][numPorts]int64, N)
		n.freq = make([][]int64, N)
		n.freqRows = nil
		n.stats = Stats{MsgsByDistance: make([]int64, m.W+m.H-1)}
	} else {
		clear(n.live)
		clear(n.linkUse)
		clear(n.freq)
		clear(n.stats.MsgsByDistance)
		n.stats = Stats{MsgsByDistance: n.stats.MsgsByDistance}
	}

	// Switch allocation grants one flit per port per cycle in each
	// direction, except the local port, whose NI channel keeps its 16 B
	// width and so moves LocalSpeedup flits per cycle on narrow meshes,
	// and the shortcut bands, which keep their 16 B width too.
	for p := range n.portBudget {
		n.portBudget[p] = 1
	}
	n.portBudget[portLocal] = cfg.LocalSpeedup
	if rfs := cfg.ShortcutWidthBytes / cfg.Width.Bytes(); rfs > 1 {
		n.portBudget[portRF] = rfs
	}
	for i := range n.shortcutFrom {
		n.shortcutFrom[i] = -1
		n.shortcutTo[i] = -1
		n.shortcutLat[i] = 0
	}
	for _, e := range cfg.Shortcuts {
		n.shortcutFrom[e.From] = e.To
		n.shortcutTo[e.To] = e.From
		n.shortcutLat[e.From] = n.shortcutLatency(e)
	}

	// All VCs, their pointers and their flit buffers live in three
	// arrays per network rather than one allocation per VC. Every VC and
	// flit slot is rewritten, whatever state the last run left it in.
	vcsTotal := 2 * cfg.VCsPerClass
	perRouter := numPorts * vcsTotal
	if !sameVCs {
		n.routers = make([]routerState, N)
		n.vcArr = make([]vcState, N*perRouter)
		n.vcPtrs = make([]*vcState, len(n.vcArr))
		n.slotArr = make([]flitSlot, len(n.vcArr)*cfg.BufDepth)
	} else {
		clear(n.slotArr)
	}
	for r := range n.routers {
		rs := &n.routers[r]
		*rs = routerState{
			id:       r,
			active:   emptied(rs.active),
			queue:    emptied(rs.queue),
			reinject: emptied(rs.reinject),
			feedings: emptied(rs.feedings),
		}
		k := r * perRouter
		rs.slots = n.slotArr[k*cfg.BufDepth : (k+perRouter)*cfg.BufDepth]
		for p := 0; p < numPorts; p++ {
			rs.vcs[p] = n.vcPtrs[k : k+vcsTotal : k+vcsTotal]
			for i := 0; i < vcsTotal; i++ {
				vc := &n.vcArr[k]
				*vc = vcState{router: rs, port: int8(p), idx: int8(i)}
				vc.base = int32((p*vcsTotal + i) * cfg.BufDepth)
				if i >= cfg.VCsPerClass {
					vc.class = vcClassEscape
				}
				n.vcPtrs[k] = vc
				k++
			}
		}
	}

	if !sameMesh || n.routes == nil || !n.routes.builtFrom(cfg.Shortcuts) {
		n.routes = buildRoutes(n)
	}
	if cfg.Multicast == MulticastRF {
		n.mc = newMCChannel(n)
	}
	if cfg.Multicast == MulticastVCT {
		n.vct = newVCTTable(cfg.VCTTableSize)
	}
	if cfg.Fault.enabled() {
		n.ensureFaults()
	}
	if cfg.Integrity {
		n.integ = newIntegrityState(N)
		n.ensureFaults() // backoff/budget parameters and the retx RNG
	}
	return nil
}

// emptied returns s with its whole backing array cleared and its length
// zero, so a reused slice keeps its capacity but no stale reference.
func emptied[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// meshLinkMM is the physical length of one inter-router mesh link on the
// 20 mm die (tech.RouterSpacingMM; duplicated here to avoid the import
// in the hot path... it is asserted equal in tests).
const meshLinkMM = 2.0

// shortcutLatency is the link-traversal latency of a shortcut edge:
// single-cycle for RF-I, length-proportional for wire shortcuts.
func (n *Network) shortcutLatency(e shortcut.Edge) int64 {
	if !n.cfg.WireShortcuts {
		return 1
	}
	distMM := float64(n.cfg.Mesh.Manhattan(e.From, e.To)) * meshLinkMM
	lat := int64(math.Ceil(distMM / n.cfg.WireMMPerCycle))
	if lat < 1 {
		lat = 1
	}
	return lat
}

// Config returns the (defaulted) configuration the network runs.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Stats returns a snapshot of the accumulated statistics.
func (n *Network) Stats() Stats {
	s := n.stats
	s.MsgsByDistance = append([]int64(nil), n.stats.MsgsByDistance...)
	return s
}

// InFlight returns the number of packets injected but not yet retired,
// plus queued multicast transmissions and pending integrity
// retransmissions (a drain is not complete while a NACK'd packet still
// awaits its re-injection). Used to drain the network at the end of a
// measurement run.
func (n *Network) InFlight() int64 {
	v := n.inFlightPackets
	if n.mc != nil {
		v += n.mc.pending()
	}
	if n.integ != nil {
		v += int64(len(n.integ.pending))
	}
	return v
}

// Inject submits a message to the network at the current cycle. It
// panics on an invalid message; callers handling user or generator
// input they do not control should use InjectChecked instead.
func (n *Network) Inject(msg Message) {
	if err := n.InjectChecked(msg); err != nil {
		panic(err)
	}
}

// InjectChecked submits a message to the network at the current cycle,
// returning an error instead of panicking on invalid input (unknown
// routers, a multicast from a non-cache router under RF delivery).
// Multicast messages are handled per the configured MulticastMode;
// unicast messages enter the source router's NI queue. On error the
// network is unchanged.
func (n *Network) InjectChecked(msg Message) error {
	if msg.Inject == 0 {
		msg.Inject = n.now
	}
	N := n.cfg.Mesh.N()
	if msg.Src < 0 || msg.Src >= N {
		return fmt.Errorf("noc: inject: unknown source router %d", msg.Src)
	}
	if !msg.Multicast {
		if msg.Dst < 0 || msg.Dst >= N {
			return fmt.Errorf("noc: inject: unknown destination router %d", msg.Dst)
		}
		if n.freq[msg.Src] == nil {
			if n.freqRows == nil {
				n.freqRows = make([]int64, N*N)
			}
			row := n.freqRows[msg.Src*N : (msg.Src+1)*N : (msg.Src+1)*N]
			clear(row)
			n.freq[msg.Src] = row
		}
		n.freq[msg.Src][msg.Dst]++
		p := n.newPacket()
		p.msg = msg
		p.numFlits = msg.Flits(n.cfg.Width)
		if n.integ != nil {
			n.integ.tag(p)
		}
		n.enqueue(msg.Src, p)
		n.stats.PacketsInjected++
		return nil
	}
	switch n.cfg.Multicast {
	case MulticastExpand:
		n.stats.MulticastMessages++
		n.expandMulticast(msg)
	case MulticastVCT:
		n.stats.MulticastMessages++
		dests := n.dbvRouters(msg.DBV)
		setup := n.vct.lookup(msg.Src, msg.DBV)
		if setup {
			n.stats.VCTMisses++
		} else {
			n.stats.VCTHits++
		}
		parent := n.newPacket()
		parent.msg = msg
		parent.numFlits = msg.Flits(n.cfg.Width)
		parent.destSet = dests
		parent.vctSetup = setup
		n.spawnMulticastChildren(msg.Src, parent, true)
		n.freePacket(parent)
	case MulticastRF:
		if n.mcDead {
			// The multicast band failed: degrade to unicast expansion
			// over the (RF-augmented) mesh.
			n.stats.MulticastMessages++
			n.expandMulticast(msg)
			return nil
		}
		if err := n.mc.submit(msg); err != nil {
			return err
		}
		n.stats.MulticastMessages++
	default:
		return fmt.Errorf("noc: inject: unhandled multicast mode %d", int(n.cfg.Multicast))
	}
	return nil
}

// expandMulticast delivers a multicast as one unicast per destination
// core injected at the source (the MulticastExpand baseline, and the
// degradation path when the RF multicast band fails).
func (n *Network) expandMulticast(msg Message) {
	cores := n.cfg.Mesh.Cores()
	for dbv := msg.DBV; dbv != 0; dbv &= dbv - 1 {
		core := bits.TrailingZeros64(dbv)
		u := msg
		u.Multicast = false
		u.Dst = cores[core]
		if u.Dst == msg.Src {
			// Self-delivery is free.
			n.recordMulticastDelivery(msg, msg.Flits(n.cfg.Width), n.now)
			continue
		}
		p := n.newPacket()
		p.msg = u
		p.numFlits = u.Flits(n.cfg.Width)
		p.deliverCore = core // count ejection as a multicast delivery
		n.enqueue(u.Src, p)
	}
}

// dbvRouters maps a DBV to the sorted list of destination router ids.
// The returned slice comes from the destination-set pool and is owned by
// the packet it is attached to.
func (n *Network) dbvRouters(dbv uint64) []int {
	cores := n.cfg.Mesh.Cores()
	out := n.newDestSet()
	for ; dbv != 0; dbv &= dbv - 1 {
		out = append(out, cores[bits.TrailingZeros64(dbv)])
	}
	return out
}

// noteNIWork puts a router on the active-NI list exactly once;
// injectFromNIs prunes routers whose NI goes idle.
func (n *Network) noteNIWork(rs *routerState) {
	if !rs.niListed {
		rs.niListed = true
		n.niActive = append(n.niActive, rs.id)
	}
}

// enqueue adds a packet to a router's NI queue.
func (n *Network) enqueue(router int, p *packet) {
	rs := &n.routers[router]
	rs.queue = append(rs.queue, p)
	n.noteNIWork(rs)
	n.inFlightPackets++
}

// enqueueFront adds a forked multicast child with reinjection priority.
func (n *Network) enqueueFront(router int, p *packet) {
	rs := &n.routers[router]
	rs.reinject = append(rs.reinject, p)
	n.noteNIWork(rs)
	n.inFlightPackets++
}

// spawnMulticastChildren splits a forking multicast at router r into one
// child per next-hop port group (delivering locally if r is itself a
// destination). When atSource is true the children enter r's normal NI
// queue; otherwise they take the priority reinjection path.
func (n *Network) spawnMulticastChildren(r int, p *packet, atSource bool) {
	groups := &n.mcGroups
	for _, d := range p.destSet {
		if d == r {
			n.recordMulticastDelivery(p.msg, p.numFlits, n.now)
			continue
		}
		port := n.escapeRoute(r, d)
		if groups[port] == nil {
			groups[port] = n.newDestSet()
		}
		groups[port] = append(groups[port], d)
	}
	for port := 0; port < numPorts; port++ {
		dests := groups[port]
		if dests == nil {
			continue
		}
		groups[port] = nil
		child := n.newPacket()
		child.msg = p.msg
		child.numFlits = p.numFlits
		child.destSet = dests
		child.vctSetup = p.vctSetup
		if atSource {
			n.enqueue(r, child)
		} else {
			n.enqueueFront(r, child)
		}
	}
}

// recordMulticastDelivery books one destination served by a multicast.
// The tail-based delivery latency lat converts to a per-flit latency of
// lat - (F-1) under back-to-back streaming (flit i injected at cycle
// inject+i arrives F-1-i cycles before the tail).
func (n *Network) recordMulticastDelivery(msg Message, numFlits int, at int64) {
	lat := at - msg.Inject
	n.stats.MulticastDeliveries++
	n.stats.MulticastLatency += lat
	n.stats.MulticastFlitsDelivered += int64(numFlits)
	perFlit := lat - int64(numFlits-1)
	if perFlit < 1 {
		perFlit = 1
	}
	n.stats.MulticastFlitLatency += perFlit * int64(numFlits)
	if len(n.observers) != 0 {
		for _, o := range n.observers {
			o.MulticastDelivered(msg, at)
		}
	}
}

// Step advances the simulation one network cycle.
func (n *Network) Step() {
	if n.integ != nil && len(n.integ.pending) != 0 {
		n.reinjectDue()
	}
	n.deliverArrivals()
	n.injectFromNIs()
	// Routers with no active VC have nothing to do. advanceRouter enlists
	// no VC in another router, so each word of the live set can be read
	// once; the walk keeps index order, which the model depends on (see
	// advanceRouter).
	for w, word := range n.live {
		for ; word != 0; word &= word - 1 {
			n.advanceRouter(&n.routers[w<<6|bits.TrailingZeros64(word)])
		}
	}
	if n.mc != nil {
		n.mc.step()
	}
	if n.faults != nil {
		if len(n.faults.pendingKills) > 0 {
			n.applyPendingKills()
		}
		if n.faults.cfg.CreditLeakRate > 0 || n.faults.cfg.StuckVCRate > 0 {
			n.stepChaos()
		}
	}
	if n.cfg.Watchdog.Enabled {
		n.watchdogStep()
	}
	n.now++
	n.stats.Cycles = n.now
	if len(n.observers) != 0 {
		for _, o := range n.observers {
			o.CycleEnd(n)
		}
	}
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// DrainReport describes how a post-injection drain went: whether the
// network emptied, how many cycles it took, and — when it did not —
// how much traffic is stranded and how stale the oldest head flit is
// (the deadlock post-mortem numbers).
type DrainReport struct {
	// Drained is true when all in-flight traffic retired within budget.
	Drained bool

	// CyclesUsed is how many drain cycles actually ran (<= the budget).
	CyclesUsed int64

	// Stranded is the in-flight count left when the drain stopped
	// (packets plus queued multicasts plus pending retransmissions;
	// zero when Drained).
	Stranded int64

	// OldestHeadAge is the age of the oldest head flit still occupying a
	// VC when the drain stopped (zero when Drained).
	OldestHeadAge int64
}

// Drain runs until all in-flight traffic retires or maxCycles elapse.
// It returns true if the network fully drained (a liveness check: with
// escape VCs there must be no deadlock).
func (n *Network) Drain(maxCycles int64) bool {
	return n.DrainWithReport(maxCycles).Drained
}

// DrainWithReport is Drain with a post-mortem: cycles used, stranded
// traffic, and the oldest head-flit age when the drain gave up.
func (n *Network) DrainWithReport(maxCycles int64) DrainReport {
	rep := DrainReport{}
	for rep.CyclesUsed = 0; rep.CyclesUsed < maxCycles; rep.CyclesUsed++ {
		if n.InFlight() == 0 {
			break
		}
		n.Step()
	}
	rep.Stranded = n.InFlight()
	rep.Drained = rep.Stranded == 0
	if !rep.Drained {
		rep.OldestHeadAge = n.Audit().OldestHeadAge
	}
	return rep
}

// deliverArrivals moves flits scheduled to arrive now into their VCs.
func (n *Network) deliverArrivals() {
	slot := n.now % wheelSize
	arrivals := n.wheel[slot]
	n.wheel[slot] = arrivals[:0]
	for _, t := range arrivals {
		vc := t.to
		vc.incoming--
		if t.isHead {
			vc.pkt = t.pkt
			vc.reserved = false
			vc.phase = phaseRC
			vc.arrivedAt = n.now
			vc.rcExtra = 0
			if t.pkt.vctSetup {
				vc.rcExtra = 2 // tree-table construction at each router
			}
			vc.vaFirstFail = -1
			vc.outVC = nil
			vc.sent = 0
			vc.retries = 0
			n.enlist(vc)
			vc.push(newFlitSlot(n.now+3+int64(vc.rcExtra), true, t.isTail), n.bufDepth)
		} else {
			vc.push(newFlitSlot(n.now+1, false, t.isTail), n.bufDepth)
		}
	}
}

// schedule puts a flit on a link, arriving after 1 cycle of switch
// traversal plus the link's traversal latency.
func (n *Network) schedule(t transfer, linkLat int64) {
	at := (n.now + 1 + linkLat) % wheelSize
	t.to.incoming++
	n.wheel[at] = append(n.wheel[at], t)
}

// injectFromNIs feeds flits from each router's NI into its local input
// port: up to LocalSpeedup packets stream concurrently, one flit each per
// cycle (the local channel keeps its 16 B width as mesh links narrow).
func (n *Network) injectFromNIs() {
	if len(n.niActive) == 0 {
		return
	}
	speedup := n.cfg.LocalSpeedup
	keepActive := n.niActive[:0]
	for _, r := range n.niActive {
		rs := &n.routers[r]
		// Start new packets while NI channel slots and local VCs allow.
		for len(rs.feedings) < speedup {
			p := rs.nextPacket()
			if p == nil {
				break
			}
			vc := n.freeVC(rs, portLocal, p.class)
			if vc == nil {
				break // all injection VCs busy; retry next cycle
			}
			vc.pkt = p
			vc.phase = phaseRC
			vc.arrivedAt = n.now
			vc.rcExtra = 0
			if p.vctSetup {
				vc.rcExtra = 2
			}
			vc.vaFirstFail = -1
			vc.outVC = nil
			vc.sent = 0
			vc.retries = 0
			n.enlist(vc)
			rs.feedings = append(rs.feedings, feeding{vc: vc})
			rs.popPacket()
		}
		// Feed one flit into each streaming VC.
		keep := rs.feedings[:0]
		for _, f := range rs.feedings {
			vc := f.vc
			if vc.space(n.bufDepth) {
				isHead := f.fed == 0
				isTail := f.fed == vc.pkt.numFlits-1
				el := n.now + 1
				if isHead {
					el = n.now + 3 + int64(vc.rcExtra)
				}
				vc.push(newFlitSlot(el, isHead, isTail), n.bufDepth)
				n.stats.FlitsInjected++
				n.stats.LocalFlitHops++
				f.fed++
			}
			if f.fed < vc.pkt.numFlits {
				keep = append(keep, f)
			}
		}
		rs.feedings = keep
		if len(rs.feedings) == 0 && rs.nextPacket() == nil {
			rs.niListed = false
		} else {
			keepActive = append(keepActive, r)
		}
	}
	n.niActive = keepActive
}

// nextPacket peeks the NI queues (reinjection first).
func (rs *routerState) nextPacket() *packet {
	if rs.rhead < len(rs.reinject) {
		return rs.reinject[rs.rhead]
	}
	if rs.qhead < len(rs.queue) {
		return rs.queue[rs.qhead]
	}
	return nil
}

// popPacket removes the packet nextPacket returned, nilling the slot so
// the queue holds no reference to a packet it no longer owns. An emptied
// queue resets to reuse its backing array from the start.
func (rs *routerState) popPacket() {
	if rs.rhead < len(rs.reinject) {
		rs.reinject[rs.rhead] = nil
		rs.rhead++
		if rs.rhead == len(rs.reinject) {
			rs.reinject = rs.reinject[:0]
			rs.rhead = 0
		}
		return
	}
	rs.queue[rs.qhead] = nil
	rs.qhead++
	if rs.qhead == len(rs.queue) {
		rs.queue = rs.queue[:0]
		rs.qhead = 0
	}
}

// freeVC finds an unoccupied VC of the given class on a port.
func (n *Network) freeVC(rs *routerState, port, class int) *vcState {
	lo, hi := 0, n.cfg.VCsPerClass
	if class == vcClassEscape {
		lo, hi = n.cfg.VCsPerClass, 2*n.cfg.VCsPerClass
	}
	for i := lo; i < hi; i++ {
		if vc := rs.vcs[port][i]; vc.free() {
			return vc
		}
	}
	return nil
}
