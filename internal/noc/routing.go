package noc

import (
	"fmt"

	"repro/internal/graph"
)

// Router ports. Each router has four mesh ports, a local port to its
// computing element, and (on RF-enabled or shortcut-attached routers) an
// RF port — the "sixth port" of Section 3.2.
const (
	portNorth = iota // +Y
	portEast         // +X
	portSouth        // -Y
	portWest         // -X
	portLocal
	portRF
	numPorts
)

func portName(p int) string {
	switch p {
	case portNorth:
		return "N"
	case portEast:
		return "E"
	case portSouth:
		return "S"
	case portWest:
		return "W"
	case portLocal:
		return "L"
	case portRF:
		return "RF"
	}
	return fmt.Sprintf("port%d", p)
}

// routeTable holds, for every router, the output port toward every
// destination, for the normal (shortest-path over the augmented topology)
// class, plus the distance-to-destination vectors that adaptive routing
// uses to enumerate minimal candidate ports. The escape class always
// routes XY and is computed on the fly.
type routeTable struct {
	// port[r][d] is the output port at router r for packets destined to
	// router d (portLocal when r == d).
	port [][]int8
	// dist[d][r] is the shortest-path distance from r to d over the
	// augmented topology.
	dist [][]int
}

// buildRoutes constructs the normal-class routing table. Without
// shortcuts this degenerates to XY; with shortcuts it is deterministic
// min-hop over the augmented graph with mesh-preferring tie-breaks: the
// next hop is the first out-edge, in adjacency order, that lies on a
// shortest path (graph.NextHops' rule), and mesh edges are inserted into
// the graph before shortcut edges.
//
// The distances are the mesh's (manhattan, or APSP of the surviving mesh)
// updated in place once per live shortcut (graph.Relax), which is exact.
//
// When the plain mesh distance equals the augmented distance for a pair,
// the XY path is used outright: this keeps zero-gain traffic off the
// shortcut bands, leaving them to the flows they were selected for.
//
// Failed links never enter the graph: dead shortcut bands are excluded
// from the augmented edges, and dead mesh links from the mesh itself
// (the XY fast paths are then disabled too, since an XY route might
// cross a dead link).
func buildRoutes(n *Network) *routeTable {
	m := n.cfg.Mesh
	N := m.N()
	live := n.liveShortcutEdges()
	meshFaulty := n.faults != nil && n.faults.meshFaults > 0
	t := &routeTable{port: make([][]int8, N)}
	ports := make([]int8, N*N)
	for r := range t.port {
		t.port[r] = ports[r*N : (r+1)*N : (r+1)*N]
	}
	// dist[r][d] is the distance from r to d; the table stores its
	// transpose, made in place at the end.
	var dist [][]int
	if meshFaulty {
		dist = n.meshGraph().AllPairs()
	} else {
		dist = make([][]int, N)
		cells := make([]int, N*N)
		for r := range dist {
			dist[r] = cells[r*N : (r+1)*N : (r+1)*N]
			for d := range dist[r] {
				dist[r][d] = m.Manhattan(r, d)
			}
		}
	}
	if len(live) == 0 && !meshFaulty {
		// Pure XY.
		for r := range t.port {
			for d := range t.port[r] {
				t.port[r][d] = int8(xyPort(n, r, d))
			}
		}
		t.dist = dist // manhattan is symmetric
		return t
	}
	g := n.meshGraph()
	for _, e := range live {
		g.AddEdge(e.From, e.To, 1)
		graph.Relax(dist, graph.Edge{From: e.From, To: e.To, Weight: 1})
	}
	for r := range t.port {
		for d := range t.port[r] {
			switch {
			case r == d:
				t.port[r][d] = portLocal
			case !meshFaulty && m.Manhattan(r, d) == dist[r][d]:
				// No shortcut gain from here: route XY.
				t.port[r][d] = int8(xyPort(n, r, d))
			default:
				t.port[r][d] = int8(portToward(n, r, nextHop(g, dist, r, d)))
			}
		}
	}
	for r := range dist {
		for d := r + 1; d < N; d++ {
			dist[r][d], dist[d][r] = dist[d][r], dist[r][d]
		}
	}
	t.dist = dist
	return t
}

// nextHop is the first out-edge of r, in adjacency order, on a shortest
// path to d (-1 when d is unreachable from r).
func nextHop(g *graph.Digraph, dist [][]int, r, d int) int {
	if dist[r][d] >= graph.Infinity {
		return -1
	}
	for _, e := range g.OutEdges(r) {
		if dist[e.To][d] < graph.Infinity && e.Weight+dist[e.To][d] == dist[r][d] {
			return e.To
		}
	}
	panic(fmt.Sprintf("noc: no consistent next hop from %d to %d", r, d))
}

// portToward maps a next-hop router to an output port at r: a mesh port
// for neighbors, the RF port for this router's shortcut destination.
func portToward(n *Network, r, next int) int {
	m := n.cfg.Mesh
	cr, cn := m.Coord(r), m.Coord(next)
	switch {
	case cn.X == cr.X && cn.Y == cr.Y+1:
		return portNorth
	case cn.X == cr.X+1 && cn.Y == cr.Y:
		return portEast
	case cn.X == cr.X && cn.Y == cr.Y-1:
		return portSouth
	case cn.X == cr.X-1 && cn.Y == cr.Y:
		return portWest
	}
	if sc := n.shortcutFrom[r]; sc == next {
		return portRF
	}
	panic(fmt.Sprintf("noc: router %d has no port toward %d", r, next))
}

// xyPort computes dimension-ordered (X then Y) routing: the deadlock-free
// route the baseline mesh and the escape VCs use.
func xyPort(n *Network, r, d int) int {
	if r == d {
		return portLocal
	}
	m := n.cfg.Mesh
	cr, cd := m.Coord(r), m.Coord(d)
	switch {
	case cd.X > cr.X:
		return portEast
	case cd.X < cr.X:
		return portWest
	case cd.Y > cr.Y:
		return portNorth
	default:
		return portSouth
	}
}

// neighborThrough returns the router on the other end of a mesh output
// port, or -1 if the port exits the mesh.
func neighborThrough(n *Network, r, port int) int {
	m := n.cfg.Mesh
	c := m.Coord(r)
	switch port {
	case portNorth:
		if c.Y+1 < m.H {
			return m.ID(c.X, c.Y+1)
		}
	case portEast:
		if c.X+1 < m.W {
			return m.ID(c.X+1, c.Y)
		}
	case portSouth:
		if c.Y-1 >= 0 {
			return m.ID(c.X, c.Y-1)
		}
	case portWest:
		if c.X-1 >= 0 {
			return m.ID(c.X-1, c.Y)
		}
	}
	return -1
}

// adaptiveCandidates lists every output port at r that lies on a minimal
// path to dst through the augmented topology: the candidate set of the
// HPCA-2008 adaptive-routing study. The RF port qualifies when the
// router's outbound shortcut shortens the remaining distance like any
// other hop.
func (n *Network) adaptiveCandidates(r, dst int, out []int8) []int8 {
	out = out[:0]
	distTo := n.routes.dist[dst]
	want := distTo[r] - 1
	for p := portNorth; p <= portWest; p++ {
		if nb := neighborThrough(n, r, p); nb >= 0 && distTo[nb] == want && !n.linkDead(r, p) {
			out = append(out, int8(p))
		}
	}
	if sc := n.shortcutFrom[r]; sc >= 0 && distTo[sc] == want && !n.linkDead(r, portRF) {
		out = append(out, int8(portRF))
	}
	return out
}

// freeVCCount counts unoccupied VCs of a class at the downstream input
// port behind output port out of router r (the congestion signal the
// adaptive router selects by).
func (n *Network) freeVCCount(r, out, class int) int {
	var target *routerState
	var inPort int
	if out == portRF {
		dst := n.shortcutFrom[r]
		if dst < 0 {
			return 0
		}
		target = &n.routers[dst]
		inPort = portRF
	} else {
		nb := neighborThrough(n, r, out)
		if nb < 0 {
			return 0
		}
		target = &n.routers[nb]
		inPort = oppositePort(out)
	}
	lo, hi := 0, n.cfg.VCsPerClass
	if class == vcClassEscape {
		lo, hi = n.cfg.VCsPerClass, 2*n.cfg.VCsPerClass
	}
	free := 0
	for i := lo; i < hi; i++ {
		if target.vcs[inPort][i].free() {
			free++
		}
	}
	return free
}
