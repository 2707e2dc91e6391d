package noc

import (
	"fmt"
	"math/rand"
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
