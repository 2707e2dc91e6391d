package noc

// This file implements the fault-injection and recovery subsystem of the
// router pipeline: transient flit corruption on mesh links and RF-I
// shortcut bands (caught by per-flit CRC, repaired by NACK + bounded
// retransmission with exponential backoff at the sender VC), and
// permanent link failures (declared directly, or after a retry budget is
// exhausted). A failed link triggers graceful degradation: the routing
// tables are rebuilt without the dead edge, in-flight packets that had
// chosen it are re-routed, and — when mesh links die — the escape class
// switches from XY to deadlock-free up*/down* routing on a BFS spanning
// tree of the surviving mesh. The paper's escape-VC argument is exactly
// why this is safe: shortcuts are pure acceleration, and the mesh (or a
// tree inside it) remains a correct, deadlock-free fallback.
//
// Failure semantics are packet-granular: a wormhole packet that has
// already moved flits onto a link when the link is declared dead drains
// over it (the link degrades for new allocations first), so no flit is
// ever dropped and exactly-once delivery is preserved. The schedule and
// orchestration layer lives in internal/fault; this file holds only the
// pipeline mechanics so package noc stays dependency-free.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/shortcut"
)

// FaultConfig parameterizes the transient-fault model. The zero value
// disables corruption draws entirely (the hot path then pays a single
// nil-pointer check); permanent kills via KillShortcut/KillMeshLink work
// regardless.
type FaultConfig struct {
	// MeshBER is the per-flit corruption probability on inter-router
	// mesh links (a flit-error rate: the probability that a transmitted
	// flit fails its CRC at the receiver and must be retransmitted).
	MeshBER float64

	// RFBER is the per-flit corruption probability on RF-I shortcut
	// bands. The analog overlay is the fragile layer, so experiments
	// typically set RFBER well above MeshBER.
	RFBER float64

	// RetryLimit is how many consecutive corrupted transmissions of one
	// packet's flit stream a link sustains before being declared
	// permanently dead. Default 8.
	RetryLimit int

	// Seed makes the corruption draws reproducible. Default 1.
	Seed int64
}

// enabled reports whether any probabilistic fault draws are configured.
func (f FaultConfig) enabled() bool {
	return f.MeshBER > 0 || f.RFBER > 0
}

// withDefaults fills the zero knobs of an enabled config.
func (f FaultConfig) withDefaults() FaultConfig {
	if f.RetryLimit == 0 {
		f.RetryLimit = 8
	}
	if f.Seed == 0 {
		f.Seed = 1
	}
	return f
}

// faultState is the network's live fault bookkeeping, created lazily the
// first time faults are configured or a link is killed.
type faultState struct {
	cfg FaultConfig
	rng *rng.Rand

	// shortcutDead[r] marks the current plan's outbound shortcut at r
	// dead; cleared by Reconfigure (the new plan is validated to avoid
	// failed endpoints).
	shortcutDead []bool

	// failedTx/failedRx mark RF endpoints whose hardware failed: once a
	// band dies, neither endpoint mixer may appear in a replanned set.
	failedTx []bool
	failedRx []bool

	// failedEdges accumulates every shortcut edge declared dead, across
	// reconfigurations, for reporting and replanning.
	failedEdges []shortcut.Edge

	// meshDead[r][p] marks the mesh output port p of router r dead.
	// Physical links fail whole: both directions are marked together.
	meshDead   [][numPorts]bool
	meshFaults int // dead physical mesh links

	// escapeNext[d][r] is the escape-class output port at router r
	// toward destination d, routed on a BFS spanning tree of the
	// surviving mesh. Built only while meshFaults > 0 (with a healthy
	// mesh the escape class routes XY with no table at all).
	escapeNext [][]int8

	// pendingKills are retry-budget link deaths detected mid-arbitration
	// and applied at the end of the cycle: declaring a link dead re-routes
	// in-flight packets, which must not happen while the switch-allocation
	// grant loop is still walking them.
	pendingKills [][2]int
}

// ensureFaults installs fault state on demand.
func (n *Network) ensureFaults() *faultState {
	if n.faults == nil {
		cfg := n.cfg.Fault.withDefaults()
		n.faults = &faultState{
			cfg:          cfg,
			rng:          rng.New(cfg.Seed),
			shortcutDead: make([]bool, n.cfg.Mesh.N()),
			failedTx:     make([]bool, n.cfg.Mesh.N()),
			failedRx:     make([]bool, n.cfg.Mesh.N()),
			meshDead:     make([][numPorts]bool, n.cfg.Mesh.N()),
		}
	}
	return n.faults
}

// corrupts draws the transient-corruption event for one flit about to
// leave router r through port p. Flits crossing an already-dead link are
// a draining wormhole packet and always pass (packet-granular failure).
func (fs *faultState) corrupts(r, p int) bool {
	var ber float64
	if p == portRF {
		if fs.shortcutDead[r] {
			return false
		}
		ber = fs.cfg.RFBER
	} else {
		if fs.meshDead[r][p] {
			return false
		}
		ber = fs.cfg.MeshBER
	}
	return ber > 0 && fs.rng.Float64() < ber
}

// backoffBase is the stall, in cycles, before the first retransmission
// (the NACK round trip: link traversal back plus CRC check). Subsequent
// retries double it up to backoffMax.
const (
	backoffBase = 4
	backoffMax  = 256
)

// backoff returns the retransmission stall for the given attempt number
// (1-based): backoffBase doubling per attempt, capped at backoffMax.
func backoff(attempt int) int64 {
	d := int64(backoffBase)
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

// retransmit handles a corrupted transmission from vc: the flit stays at
// the sender (CRC failed downstream, NACK returned), pays an
// exponential-backoff stall, and after RetryLimit consecutive failures
// the link is declared permanently dead.
func (n *Network) retransmit(rs *routerState, vc *vcState) {
	fs := n.faults
	n.stats.FlitsCorrupted++
	vc.retries++
	if int(vc.retries) >= fs.cfg.RetryLimit {
		if vc.outPort == portRF || n.meshKillable(rs.id, int(vc.outPort)) {
			// Budget exhausted: the link dies. The declaration is
			// deferred to the end of the cycle (the grant loop may still
			// hold references to VCs the reroute would reset); the flit
			// stays put and either re-routes with its packet or drains
			// over the then-dead link.
			fs.queueKill(rs.id, int(vc.outPort))
			if f := vc.front(); f != nil {
				f.setEligibleAt(n.now + 1)
			}
			return
		}
		// Killing this link would disconnect the mesh: it must stay up
		// (delivery beats declaring death), so the budget resets and the
		// sender keeps retrying at maximum backoff.
		vc.retries = 0
	}
	n.stats.Retransmits++
	delay := backoff(int(vc.retries))
	if f := vc.front(); f != nil {
		f.setEligibleAt(n.now + delay)
	}
}

// queueKill records a retry-budget link death for application at the end
// of the current cycle (idempotent per link).
func (fs *faultState) queueKill(r, port int) {
	for _, k := range fs.pendingKills {
		if k[0] == r && k[1] == port {
			return
		}
	}
	fs.pendingKills = append(fs.pendingKills, [2]int{r, port})
}

// applyPendingKills declares queued link deaths; called from Step once
// the cycle's arbitration has fully completed.
func (n *Network) applyPendingKills() {
	fs := n.faults
	kills := fs.pendingKills
	fs.pendingKills = fs.pendingKills[:0]
	for _, k := range kills {
		if n.linkDead(k[0], k[1]) {
			continue
		}
		// Re-check connectivity: an earlier kill in this batch may have
		// made this one disconnecting.
		if k[1] != portRF && !n.meshKillable(k[0], k[1]) {
			continue
		}
		n.failLink(k[0], k[1])
	}
}

// KillShortcut permanently fails the outbound RF-I shortcut band at
// router from: the band's routing entries are invalidated, in-flight
// packets fall back to the mesh, and both endpoint mixers are excluded
// from future replans. Safe between cycles (e.g. from Observer.CycleEnd);
// never call it from inside a Step.
func (n *Network) KillShortcut(from int) error {
	if from < 0 || from >= len(n.shortcutFrom) {
		return fmt.Errorf("noc: kill shortcut: unknown router index %d", from)
	}
	if n.shortcutFrom[from] < 0 {
		return fmt.Errorf("noc: kill shortcut: router %d has no outbound shortcut", from)
	}
	if n.ensureFaults().shortcutDead[from] {
		return fmt.Errorf("noc: kill shortcut: shortcut at router %d already failed", from)
	}
	n.failLink(from, portRF)
	return nil
}

// KillMeshLink permanently fails the physical mesh link between adjacent
// routers a and b (both directions). It refuses to disconnect the mesh:
// graceful degradation guarantees delivery only while a fallback path
// exists. Safe between cycles, like KillShortcut.
func (n *Network) KillMeshLink(a, b int) error {
	N := n.cfg.Mesh.N()
	if a < 0 || a >= N || b < 0 || b >= N {
		return fmt.Errorf("noc: kill mesh link: unknown router index %d-%d", a, b)
	}
	port := -1
	for p := portNorth; p <= portWest; p++ {
		if neighborThrough(n, a, p) == b {
			port = p
			break
		}
	}
	if port < 0 {
		return fmt.Errorf("noc: kill mesh link: routers %d and %d are not adjacent", a, b)
	}
	if n.ensureFaults().meshDead[a][port] {
		return fmt.Errorf("noc: kill mesh link: link %d-%d already failed", a, b)
	}
	if !n.meshKillable(a, port) {
		return fmt.Errorf("noc: kill mesh link: removing %d-%d would disconnect the mesh", a, b)
	}
	n.failLink(a, port)
	return nil
}

// KillMulticastBand permanently fails the RF multicast band. Queued and
// future multicasts fall back to unicast expansion over the mesh; the
// transmission in flight (if any) completes (packet-granular failure).
func (n *Network) KillMulticastBand() error {
	if n.mc == nil {
		return fmt.Errorf("noc: kill multicast band: no multicast band configured")
	}
	if n.mcDead {
		return fmt.Errorf("noc: kill multicast band: band already failed")
	}
	n.ensureFaults()
	n.mcDead = true
	n.stats.LinkFailures++
	for _, o := range n.observers {
		o.LinkFailed(-1, portRF, n.now)
	}
	n.mc.failover()
	return nil
}

// meshKillable reports whether the mesh link leaving r through port can
// die without disconnecting the surviving mesh.
func (n *Network) meshKillable(r, port int) bool {
	nb := neighborThrough(n, r, port)
	if nb < 0 {
		return false
	}
	m := n.cfg.Mesh
	N := m.N()
	blocked := func(from, p int) bool {
		if n.faults != nil && n.faults.meshDead[from][p] {
			return true
		}
		return from == r && p == port || from == nb && p == oppositePort(port)
	}
	seen := make([]bool, N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := portNorth; p <= portWest; p++ {
			w := neighborThrough(n, v, p)
			if w < 0 || seen[w] || blocked(v, p) {
				continue
			}
			seen[w] = true
			count++
			stack = append(stack, w)
		}
	}
	return count == N
}

// failLink marks a link dead and runs the degradation sequence: fire
// LinkFailed, rebuild the routing tables minus the dead edge (and the
// tree escape table for mesh faults), then re-route in-flight packets
// that had chosen the link.
func (n *Network) failLink(r, port int) {
	fs := n.ensureFaults()
	if port == portRF {
		to := n.shortcutFrom[r]
		fs.shortcutDead[r] = true
		fs.failedTx[r] = true
		fs.failedRx[to] = true
		fs.failedEdges = append(fs.failedEdges, shortcut.Edge{From: r, To: to})
	} else {
		nb := neighborThrough(n, r, port)
		fs.meshDead[r][port] = true
		fs.meshDead[nb][oppositePort(port)] = true
		fs.meshFaults++
		fs.rebuildEscape(n)
	}
	n.stats.LinkFailures++
	for _, o := range n.observers {
		o.LinkFailed(r, port, n.now)
	}
	n.routes = buildRoutes(n)
	n.rerouteInFlight()
}

// rerouteInFlight resets every in-flight packet that had committed to a
// now-dead link (or holds a stale adaptive candidate set referencing
// one) back to route computation, releasing any downstream VC it had
// reserved. Packets that already moved flits onto the dead link are left
// to drain over it.
func (n *Network) rerouteInFlight() {
	fs := n.faults
	for r := range n.routers {
		rs := &n.routers[r]
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				if vc.pkt == nil || (vc.phase != phaseVA && vc.phase != phaseActive) {
					continue
				}
				if !fs.stale(r, vc) {
					continue
				}
				if vc.phase == phaseActive && vc.sent > 0 {
					continue // mid-wormhole: drains over the dying link
				}
				if vc.outVC != nil {
					vc.outVC.reserved = false
					vc.outVC = nil
				}
				vc.phase = phaseRC
				vc.arrivedAt = n.now
				vc.vaFirstFail = -1
				vc.retries = 0
				vc.ncands = 0
				n.enlist(vc)
				n.stats.DegradedReroutes++
			}
		}
	}
}

// stale reports whether vc's routing decision references a dead link.
func (fs *faultState) stale(r int, vc *vcState) bool {
	dead := func(p int) bool {
		if p == portRF {
			return fs.shortcutDead[r]
		}
		return p != portLocal && fs.meshDead[r][p]
	}
	if dead(int(vc.outPort)) {
		return true
	}
	for _, c := range vc.candidates() {
		if dead(int(c)) {
			return true
		}
	}
	return false
}

// linkDead reports whether output port p at router r is failed.
func (n *Network) linkDead(r, p int) bool {
	fs := n.faults
	if fs == nil {
		return false
	}
	if p == portRF {
		return fs.shortcutDead[r]
	}
	return fs.meshDead[r][p]
}

// liveShortcutEdges returns the configured shortcut set minus failed
// bands (what the routing tables may use).
func (n *Network) liveShortcutEdges() []shortcut.Edge {
	if n.faults == nil {
		return n.cfg.Shortcuts
	}
	live := make([]shortcut.Edge, 0, len(n.cfg.Shortcuts))
	for _, e := range n.cfg.Shortcuts {
		if !n.faults.shortcutDead[e.From] {
			live = append(live, e)
		}
	}
	return live
}

// meshGraph returns the surviving conventional mesh as a digraph.
func (n *Network) meshGraph() *graph.Digraph {
	g := n.cfg.Mesh.Graph()
	fs := n.faults
	if fs == nil || fs.meshFaults == 0 {
		return g
	}
	for r := range fs.meshDead {
		for p := portNorth; p <= portWest; p++ {
			if fs.meshDead[r][p] {
				g.RemoveEdge(r, neighborThrough(n, r, p))
			}
		}
	}
	return g
}

// rebuildEscape recomputes the escape-class routing table as up*/down*
// routing on a BFS spanning tree of the surviving mesh, rooted at router
// 0. Routing restricted to a tree is deadlock-free (every route climbs
// toward the root, then descends, so the channel dependency graph is
// acyclic), which preserves the escape class as a valid Duato escape
// layer even when XY paths are severed.
func (fs *faultState) rebuildEscape(n *Network) {
	m := n.cfg.Mesh
	N := m.N()
	// BFS from 0 over live mesh links, recording tree adjacency.
	type hop struct {
		to   int
		port int8
	}
	treeAdj := make([][]hop, N)
	seen := make([]bool, N)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := portNorth; p <= portWest; p++ {
			w := neighborThrough(n, v, p)
			if w < 0 || seen[w] || fs.meshDead[v][p] {
				continue
			}
			seen[w] = true
			treeAdj[v] = append(treeAdj[v], hop{to: w, port: int8(p)})
			treeAdj[w] = append(treeAdj[w], hop{to: v, port: int8(oppositePort(p))})
			queue = append(queue, w)
		}
	}
	for v, ok := range seen {
		if !ok {
			panic(fmt.Sprintf("noc: mesh disconnected at router %d (kill should have been refused)", v))
		}
	}
	// Per destination, BFS over tree edges yields the next-hop port at
	// every router (the unique tree path).
	fs.escapeNext = make([][]int8, N)
	for d := 0; d < N; d++ {
		next := make([]int8, N)
		next[d] = int8(portLocal)
		visited := make([]bool, N)
		visited[d] = true
		queue = queue[:0]
		queue = append(queue, d)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range treeAdj[v] {
				if visited[h.to] {
					continue
				}
				visited[h.to] = true
				// The tree edge from h.to back to v is h.to's next hop
				// toward d.
				for _, back := range treeAdj[h.to] {
					if back.to == v {
						next[h.to] = back.port
						break
					}
				}
				queue = append(queue, h.to)
			}
		}
		fs.escapeNext[d] = next
	}
}

// escapeRoute is the deadlock-free fallback routing function: XY on a
// healthy mesh, tree routing on a degraded one. The escape VCs, the
// VA-timeout fallback and mesh-only multicast forwarding all route
// through it.
func (n *Network) escapeRoute(r, d int) int {
	if fs := n.faults; fs != nil && fs.meshFaults > 0 {
		return int(fs.escapeNext[d][r])
	}
	return xyPort(n, r, d)
}

// FailedShortcuts returns every shortcut edge declared dead so far,
// across reconfigurations.
func (n *Network) FailedShortcuts() []shortcut.Edge {
	if n.faults == nil {
		return nil
	}
	return append([]shortcut.Edge(nil), n.faults.failedEdges...)
}

// FailedRFEndpoint reports whether router id's RF transmitter or
// receiver hardware has failed (it must not appear in that role in a
// replanned shortcut set).
func (n *Network) FailedRFEndpoint(id int) (tx, rx bool) {
	if n.faults == nil || id < 0 || id >= len(n.faults.failedTx) {
		return false, false
	}
	return n.faults.failedTx[id], n.faults.failedRx[id]
}

// DeadMeshLinks returns the failed physical mesh links as router pairs
// (lower id first).
func (n *Network) DeadMeshLinks() [][2]int {
	if n.faults == nil {
		return nil
	}
	var out [][2]int
	for r := range n.faults.meshDead {
		for p := portNorth; p <= portWest; p++ {
			if n.faults.meshDead[r][p] {
				if nb := neighborThrough(n, r, p); nb > r {
					out = append(out, [2]int{r, nb})
				}
			}
		}
	}
	return out
}

// MulticastBandAlive reports whether the RF multicast band (if
// configured) is still operational.
func (n *Network) MulticastBandAlive() bool {
	return n.mc != nil && !n.mcDead
}
