package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridStructure(t *testing.T) {
	g := Grid(10, 10)
	if g.N() != 100 {
		t.Fatalf("N = %d, want 100", g.N())
	}
	// A 10x10 grid has 2*(9*10+9*10) = 360 directed edges.
	if got := len(g.Edges()); got != 360 {
		t.Errorf("edges = %d, want 360", got)
	}
	// Corner has 2 out-edges, edge vertex 3, interior 4.
	if got := len(g.OutEdges(0)); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := len(g.OutEdges(5)); got != 3 {
		t.Errorf("edge degree = %d, want 3", got)
	}
	if got := len(g.OutEdges(55)); got != 4 {
		t.Errorf("interior degree = %d, want 4", got)
	}
}

func TestGridShortestPathsAreManhattan(t *testing.T) {
	g := Grid(10, 10)
	apsp := g.AllPairs()
	for y1 := 0; y1 < 10; y1++ {
		for x1 := 0; x1 < 10; x1++ {
			for y2 := 0; y2 < 10; y2++ {
				for x2 := 0; x2 < 10; x2++ {
					u, v := y1*10+x1, y2*10+x2
					want := abs(x1-x2) + abs(y1-y2)
					if apsp[u][v] != want {
						t.Fatalf("dist(%d,%d) = %d, want %d", u, v, apsp[u][v], want)
					}
				}
			}
		}
	}
}

func TestDiameterOfGrid(t *testing.T) {
	g := Grid(10, 10)
	d, _, _ := g.Diameter()
	if d != 18 {
		t.Errorf("diameter = %d, want 18", d)
	}
}

func TestShortcutReducesCost(t *testing.T) {
	g := Grid(10, 10)
	before := g.TotalPairCost()
	// Add a cross-chip shortcut corner-to-corner.
	g.AddEdge(0, 99, 1)
	after := g.TotalPairCost()
	if after >= before {
		t.Errorf("shortcut did not reduce total cost: %d -> %d", before, after)
	}
	// Distance 0->99 should now be 1.
	if d := g.ShortestFrom(0)[99]; d != 1 {
		t.Errorf("dist(0,99) = %d, want 1", d)
	}
}

func TestNextHopsConsistentWithDistances(t *testing.T) {
	g := Grid(6, 6)
	g.AddEdge(0, 35, 1) // shortcut
	for dst := 0; dst < g.N(); dst++ {
		next := g.NextHops(dst)
		dist := g.reverse().ShortestFrom(dst)
		for v := 0; v < g.N(); v++ {
			if v == dst {
				if next[v] != -1 {
					t.Fatalf("next[dst] = %d, want -1", next[v])
				}
				continue
			}
			n := next[v]
			if n == -1 {
				t.Fatalf("vertex %d has no next hop to %d", v, dst)
			}
			if dist[n] != dist[v]-edgeWeight(g, v, n) {
				t.Fatalf("next hop %d->%d not on shortest path to %d", v, n, dst)
			}
		}
	}
}

func edgeWeight(g *Digraph, from, to int) int {
	for _, e := range g.OutEdges(from) {
		if e.To == to {
			return e.Weight
		}
	}
	return -1
}

func TestPathToEndpointsAndLength(t *testing.T) {
	g := Grid(10, 10)
	p := g.PathTo(0, 99)
	if p[0] != 0 || p[len(p)-1] != 99 {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	if len(p)-1 != 18 {
		t.Errorf("path length = %d hops, want 18", len(p)-1)
	}
	if got := g.PathTo(7, 7); len(got) != 1 || got[0] != 7 {
		t.Errorf("self path = %v", got)
	}
}

func TestPathFollowsEdges(t *testing.T) {
	g := Grid(8, 8)
	g.AddEdge(3, 60, 1)
	p := g.PathTo(3, 63)
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path step %d->%d is not an edge", p[i], p[i+1])
		}
	}
	// Path should use the shortcut: 3 -> 60 -> ... cheaper than manhattan.
	if len(p)-1 >= 10 {
		t.Errorf("path did not exploit shortcut, %d hops", len(p)-1)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Grid(3, 3)
	if !g.HasEdge(0, 1) {
		t.Fatal("expected edge 0->1")
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned false")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge survived removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second removal should report false")
	}
	// Reverse direction untouched.
	if !g.HasEdge(1, 0) {
		t.Fatal("reverse edge should remain")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Grid(3, 3)
	c := g.Clone()
	c.AddEdge(0, 8, 1)
	if g.HasEdge(0, 8) {
		t.Fatal("mutating clone affected original")
	}
	if !c.HasEdge(0, 8) {
		t.Fatal("clone lost its own edge")
	}
}

func TestWeightedCost(t *testing.T) {
	g := Grid(4, 4)
	apsp := g.AllPairs()
	freq := make([][]int64, 16)
	freq[0] = make([]int64, 16)
	freq[0][15] = 10 // 10 messages over distance 6
	freq[5] = make([]int64, 16)
	freq[5][6] = 3 // 3 messages over distance 1
	if got := WeightedCost(apsp, freq); got != 63 {
		t.Errorf("weighted cost = %d, want 63", got)
	}
}

func TestTotalCostSymmetricGrid(t *testing.T) {
	g := Grid(2, 2)
	// 2x2 grid pair distances: 4 pairs at distance 1 each way (8 ordered)
	// and 2 diagonal pairs at distance 2 each way (4 ordered) = 8+8 = 16.
	if got := g.TotalPairCost(); got != 16 {
		t.Errorf("total cost = %d, want 16", got)
	}
}

func TestAddEdgePanicsOnBadInput(t *testing.T) {
	g := New(4)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 4, 1) },
		func() { g.AddEdge(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: adding any edge never increases any pairwise distance, and
// total cost is monotonically non-increasing.
func TestPropertyAddingEdgesNeverHurts(t *testing.T) {
	f := func(a, b uint8) bool {
		g := Grid(5, 5)
		u, v := int(a)%25, int(b)%25
		if u == v {
			return true
		}
		before := g.AllPairs()
		g.AddEdge(u, v, 1)
		after := g.AllPairs()
		for x := 0; x < 25; x++ {
			for y := 0; y < 25; y++ {
				if after[x][y] > before[x][y] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: shortest-path distances satisfy the triangle inequality.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(a, b, c uint8) bool {
		g := Grid(5, 5)
		g.AddEdge(2, 22, 1)
		g.AddEdge(20, 4, 1)
		apsp := g.AllPairs()
		x, y, z := int(a)%25, int(b)%25, int(c)%25
		return apsp[x][z] <= apsp[x][y]+apsp[y][z]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a path returned by PathTo always has length equal to the
// shortest-path distance.
func TestPropertyPathLengthMatchesDistance(t *testing.T) {
	f := func(a, b uint8) bool {
		g := Grid(6, 6)
		g.AddEdge(1, 34, 1)
		u, v := int(a)%36, int(b)%36
		p := g.PathTo(u, v)
		d := g.ShortestFrom(u)[v]
		return len(p)-1 == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Property: after every weighted edge insertion, Relax leaves the matrix
// equal to a from-scratch AllPairs of the augmented graph. Half the
// graphs are a random spanning cycle plus chords (strongly connected);
// the rest are sparse random digraphs whose unreachable pairs must stay
// exactly Infinity.
func TestPropertyRelaxMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 60; c++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		if c%2 == 0 {
			perm := rng.Perm(n)
			for i := range perm {
				g.AddEdge(perm[i], perm[(i+1)%n], 1+rng.Intn(5))
			}
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
		}
		apsp := g.AllPairs()
		for k := 0; k < 1+rng.Intn(2*n); k++ {
			e := Edge{From: rng.Intn(n), To: rng.Intn(n), Weight: 1 + rng.Intn(9)}
			g.AddEdge(e.From, e.To, e.Weight)
			Relax(apsp, e)
			want := g.AllPairs()
			for x := range want {
				for y := range want[x] {
					if apsp[x][y] != want[x][y] {
						t.Fatalf("graph %d, insertion %d (%v): d(%d,%d) = %d, want %d",
							c, k, e, x, y, apsp[x][y], want[x][y])
					}
				}
			}
		}
	}
}
