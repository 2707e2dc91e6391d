package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestBuildRoutesMatchesNextHops checks the routing tables against a
// reference construction: one graph.NextHops and one reverse Dijkstra per
// destination over the augmented surviving graph. Ports and distances
// must match element-wise for random RF and wire shortcut sets, with and
// without killed mesh links and shortcut bands.
func TestBuildRoutesMatchesNextHops(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 8
	}
	rng := rand.New(rand.NewSource(29))
	kills := 0
	for c := 0; c < cases; c++ {
		w, h := 6+2*rng.Intn(3), 6+2*rng.Intn(3) // topology.New wants even sides >= 6
		m := topology.New(w, h)
		N := m.N()
		perm := rng.Perm(N)
		var edges []shortcut.Edge
		for k := rng.Intn(17); k > 0 && len(perm) >= 2; k-- {
			edges = append(edges, shortcut.Edge{From: perm[0], To: perm[1]})
			perm = perm[2:]
		}
		cfg := Config{Mesh: m, Width: tech.Width16B, Shortcuts: edges, WireShortcuts: c%2 == 1}
		n, err := NewChecked(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		name := fmt.Sprintf("case %d (%dx%d, %d shortcuts, wire=%v)", c, w, h, len(edges), cfg.WireShortcuts)
		compareRoutes(t, name, n)
		for k := rng.Intn(4); k > 0; k-- {
			r := rng.Intn(N)
			if rng.Intn(3) == 0 && n.shortcutFrom[r] >= 0 {
				if n.KillShortcut(r) == nil {
					kills++
					compareRoutes(t, fmt.Sprintf("%s, shortcut %d killed", name, r), n)
				}
				continue
			}
			nb := neighborThrough(n, r, rng.Intn(4))
			if nb >= 0 && n.KillMeshLink(r, nb) == nil {
				kills++
				compareRoutes(t, fmt.Sprintf("%s, link %d-%d killed", name, r, nb), n)
			}
		}
	}
	if kills == 0 {
		t.Error("no link was killed; the faulty-mesh branch went untested")
	}
}

func compareRoutes(t *testing.T, name string, n *Network) {
	t.Helper()
	want := refBuildRoutes(n)
	got := n.routes
	for r := range want.port {
		for d := range want.port[r] {
			if got.port[r][d] != want.port[r][d] {
				t.Fatalf("%s: port[%d][%d] = %d, want %d", name, r, d, got.port[r][d], want.port[r][d])
			}
			if got.dist[d][r] != want.dist[d][r] {
				t.Fatalf("%s: dist[%d][%d] = %d, want %d", name, d, r, got.dist[d][r], want.dist[d][r])
			}
		}
	}
}

// refBuildRoutes is the reference routing-table construction.
func refBuildRoutes(n *Network) *routeTable {
	m := n.cfg.Mesh
	t := &routeTable{port: make([][]int8, m.N()), dist: make([][]int, m.N())}
	live := n.liveShortcutEdges()
	meshFaulty := n.faults != nil && n.faults.meshFaults > 0
	g := n.meshGraph()
	for _, e := range live {
		g.AddEdge(e.From, e.To, 1)
	}
	rev := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, e := range g.OutEdges(v) {
			rev.AddEdge(e.To, e.From, e.Weight)
		}
	}
	for r := range t.port {
		t.port[r] = make([]int8, m.N())
	}
	for d := 0; d < m.N(); d++ {
		next := g.NextHops(d)
		t.dist[d] = rev.ShortestFrom(d)
		for r := 0; r < m.N(); r++ {
			switch {
			case r == d:
				t.port[r][d] = portLocal
			case !meshFaulty && m.Manhattan(r, d) == t.dist[d][r]:
				t.port[r][d] = int8(xyPort(n, r, d))
			default:
				t.port[r][d] = int8(portToward(n, r, next[r]))
			}
		}
	}
	return t
}

// escapeCDG builds the channel dependency graph of the escape class:
// one vertex per directed channel (router*numPorts + output port), and
// an edge c1 -> c2 whenever an escape packet for some destination
// leaves a router over c1 and escapeRoute sends it on over c2 at the
// next router. Off-mesh hops are left out; the path walk reports them.
func escapeCDG(n *Network) *graph.Digraph {
	N := n.cfg.Mesh.N()
	g := graph.New(N * numPorts)
	for d := 0; d < N; d++ {
		for r := 0; r < N; r++ {
			if r == d {
				continue
			}
			p := n.escapeRoute(r, d)
			nb := neighborThrough(n, r, p)
			if nb < 0 || nb == d {
				continue
			}
			g.AddEdge(r*numPorts+p, nb*numPorts+n.escapeRoute(nb, d), 1)
		}
	}
	return g
}

// findCycle returns the vertices of one directed cycle of g, or nil if
// g is acyclic (depth-first search with grey/black marking).
func findCycle(g *graph.Digraph) []int {
	const white, grey, black = 0, 1, 2
	color := make([]int8, g.N())
	parent := make([]int, g.N())
	var cycle []int
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = grey
		for _, e := range g.OutEdges(v) {
			switch color[e.To] {
			case grey:
				for u := v; u != e.To; u = parent[u] {
					cycle = append(cycle, u)
				}
				cycle = append(cycle, e.To)
				slices.Reverse(cycle)
				return true
			case white:
				parent[e.To] = v
				if visit(e.To) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < g.N(); v++ {
		if color[v] == white && visit(v) {
			return cycle
		}
	}
	return nil
}

// assertEscapeCDGAcyclic fails the test if the escape class's channel
// dependency graph has a cycle: Duato's condition for deadlock freedom.
func assertEscapeCDGAcyclic(t *testing.T, n *Network, what string) {
	t.Helper()
	if cycle := findCycle(escapeCDG(n)); cycle != nil {
		var b strings.Builder
		for _, c := range cycle {
			fmt.Fprintf(&b, " %d:%s", c/numPorts, PortName(c%numPorts))
		}
		t.Fatalf("%s: escape-class channel dependency cycle (router:port):%s", what, b.String())
	}
}

// TestPropertyEscapeRouteSpanningTree kills random (connectivity-
// preserving) mesh link sets and verifies the escape routing function
// still realizes a spanning tree: from every router, following
// escapeRoute hops reaches every destination over live links without
// ever revisiting a router (cycle-free), in at most N-1 hops. The escape
// class's channel dependency graph must be acyclic on the fault-free XY
// mesh and after every kill set.
func TestPropertyEscapeRouteSpanningTree(t *testing.T) {
	t.Parallel()
	assertEscapeCDGAcyclic(t, New(Config{Mesh: topology.New(6, 6), Width: tech.Width16B}), "fault-free XY")
	for seed := int64(0); seed < 6; seed++ {
		m := topology.New(6, 6)
		n := New(Config{Mesh: m, Width: tech.Width16B})
		rng := rand.New(rand.NewSource(seed))
		kills := 0
		for attempt := 0; attempt < 20 && kills < 8; attempt++ {
			a := rng.Intn(m.N())
			ax, ay := a%6, a/6
			var b int
			if rng.Intn(2) == 0 && ax+1 < 6 {
				b = a + 1
			} else if ay+1 < 6 {
				b = a + 6
			} else {
				continue
			}
			if err := n.KillMeshLink(a, b); err == nil {
				kills++
			}
		}
		assertEscapeCDGAcyclic(t, n, fmt.Sprintf("seed %d kills %d", seed, kills))
		dead := map[[2]int]bool{}
		for _, lk := range n.DeadMeshLinks() {
			dead[lk] = true
			dead[[2]int{lk[1], lk[0]}] = true
		}
		N := m.N()
		for d := 0; d < N; d++ {
			for r := 0; r < N; r++ {
				cur, hops := r, 0
				seen := map[int]bool{r: true}
				for cur != d {
					port := n.escapeRoute(cur, d)
					if port == portLocal || port == portRF {
						t.Fatalf("seed %d kills %d: escapeRoute(%d,%d) = %s before arrival",
							seed, kills, cur, d, PortName(port))
					}
					nb := neighborThrough(n, cur, port)
					if nb < 0 {
						t.Fatalf("seed %d: escapeRoute(%d,%d) points off-mesh via %s",
							seed, cur, d, PortName(port))
					}
					if dead[[2]int{cur, nb}] {
						t.Fatalf("seed %d: escapeRoute(%d,%d) crosses dead link %d-%d",
							seed, cur, d, cur, nb)
					}
					if seen[nb] {
						t.Fatalf("seed %d: escape path to %d revisits router %d (cycle)", seed, d, nb)
					}
					seen[nb] = true
					cur = nb
					if hops++; hops >= N {
						t.Fatalf("seed %d: escape path %d->%d exceeds %d hops", seed, r, d, N)
					}
				}
			}
		}
	}
}
