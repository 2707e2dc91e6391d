// Package graph provides the small directed-graph library used for
// shortcut selection and routing-table construction: grid graphs,
// all-pairs shortest paths, diameters, and next-hop extraction.
//
// Vertices are dense integers [0, N). Edges carry an integer weight
// (hop cost); the mesh uses weight 1 everywhere and RF-I shortcuts are
// weight-1 edges too (single-cycle cross-chip traversal), so shortest
// paths are measured in router hops exactly as the paper's cost metric
// W(x,y) prescribes.
package graph

import (
	"fmt"
	"math"
)

// Infinity marks an unreachable distance in APSP results.
const Infinity = math.MaxInt32

// Edge is a directed, weighted edge.
type Edge struct {
	From, To int
	Weight   int
}

// Digraph is a mutable directed graph over dense integer vertices.
type Digraph struct {
	n   int
	adj [][]Edge
}

// New returns an empty digraph with n vertices.
func New(n int) *Digraph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Digraph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// AddEdge inserts a directed edge. Duplicate edges are allowed; shortest
// paths will use the cheapest. Panics on out-of-range vertices or
// non-positive weight (zero-weight edges would allow free cycles).
func (g *Digraph) AddEdge(from, to, weight int) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if weight <= 0 {
		panic("graph: edge weight must be positive")
	}
	g.adj[from] = append(g.adj[from], Edge{From: from, To: to, Weight: weight})
}

// RemoveEdge deletes all edges from->to. It reports whether any edge was
// removed.
func (g *Digraph) RemoveEdge(from, to int) bool {
	if from < 0 || from >= g.n {
		return false
	}
	kept := g.adj[from][:0]
	removed := false
	for _, e := range g.adj[from] {
		if e.To == to {
			removed = true
			continue
		}
		kept = append(kept, e)
	}
	g.adj[from] = kept
	return removed
}

// HasEdge reports whether at least one from->to edge exists.
func (g *Digraph) HasEdge(from, to int) bool {
	if from < 0 || from >= g.n {
		return false
	}
	for _, e := range g.adj[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

// OutEdges returns the edges leaving v. The slice is owned by the graph
// and must not be modified.
func (g *Digraph) OutEdges(v int) []Edge { return g.adj[v] }

// Edges returns a copy of all edges in the graph.
func (g *Digraph) Edges() []Edge {
	var out []Edge
	for _, es := range g.adj {
		out = append(out, es...)
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := New(g.n)
	for v, es := range g.adj {
		c.adj[v] = append([]Edge(nil), es...)
	}
	return c
}

// ShortestFrom computes single-source shortest path distances from src
// using Dijkstra's algorithm (weights are positive by construction).
// dist[v] == Infinity for unreachable v.
func (g *Digraph) ShortestFrom(src int) []int {
	dist := make([]int, g.n)
	g.shortestFromInto(src, dist, &vertexHeap{})
	return dist
}

// shortestFromInto is ShortestFrom reusing caller-provided scratch to avoid
// allocation in the O(V) APSP loop.
func (g *Digraph) shortestFromInto(src int, dist []int, pq *vertexHeap) {
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	*pq = (*pq)[:0]
	pq.push(vertexItem{v: src, d: 0})
	for len(*pq) > 0 {
		it := pq.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, e := range g.adj[it.v] {
			if nd := it.d + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				pq.push(vertexItem{v: e.To, d: nd})
			}
		}
	}
}

// AllPairs computes the all-pairs shortest-path distance matrix.
// Result[u][v] is the distance from u to v (Infinity if unreachable).
func (g *Digraph) AllPairs() [][]int {
	out := make([][]int, g.n)
	pq := &vertexHeap{}
	for u := 0; u < g.n; u++ {
		out[u] = make([]int, g.n)
		g.shortestFromInto(u, out[u], pq)
	}
	return out
}

// Relax updates an all-pairs distance matrix in place for one added
// edge e, so that it equals AllPairs of the augmented graph:
//
//	d'(x,y) = min( d(x,y), d(x,u) + w + d(v,y) )   for e = (u,v,w).
//
// A single new edge can only be used once on a shortest path, so the
// identity is exact. It reads column u and row v, and neither changes
// (d'(x,u) would need d(v,u)+w < 0, d'(v,y) likewise), so updating in
// place is safe. Unreachable entries stay Infinity; sums with Infinity
// are never formed.
func Relax(apsp [][]int, e Edge) {
	rowV := apsp[e.To]
	for _, rowX := range apsp {
		dxu := rowX[e.From]
		if dxu >= Infinity {
			continue
		}
		via := dxu + e.Weight
		for y, dvy := range rowV {
			if dvy < Infinity && via+dvy < rowX[y] {
				rowX[y] = via + dvy
			}
		}
	}
}

// TotalPairCost sums the shortest-path distance over all ordered vertex
// pairs (u != v). This is the paper's architecture-specific objective
// sum over all (x,y) of W(x,y). It returns Infinity-scaled overflow-safe
// values only for connected graphs; unreachable pairs panic, because the
// selection algorithms are only defined on connected meshes.
func (g *Digraph) TotalPairCost() int64 {
	apsp := g.AllPairs()
	return TotalCost(apsp)
}

// TotalCost sums a distance matrix over all ordered pairs, panicking on
// unreachable pairs.
func TotalCost(apsp [][]int) int64 {
	var total int64
	for u := range apsp {
		for v, d := range apsp[u] {
			if u == v {
				continue
			}
			if d >= Infinity {
				panic(fmt.Sprintf("graph: vertex %d cannot reach %d", u, v))
			}
			total += int64(d)
		}
	}
	return total
}

// WeightedCost sums freq[u][v] * dist[u][v] over all ordered pairs. It is
// the application-specific objective sum of F(x,y)*W(x,y). freq may be
// sparse (nil rows are treated as all-zero).
func WeightedCost(apsp [][]int, freq [][]int64) int64 {
	var total int64
	for u := range apsp {
		if u >= len(freq) || freq[u] == nil {
			continue
		}
		row := freq[u]
		for v, f := range row {
			if f == 0 || u == v {
				continue
			}
			d := apsp[u][v]
			if d >= Infinity {
				panic(fmt.Sprintf("graph: vertex %d cannot reach %d", u, v))
			}
			total += f * int64(d)
		}
	}
	return total
}

// Diameter returns the maximum finite shortest-path distance over all
// ordered pairs, and one pair realizing it.
func (g *Digraph) Diameter() (d int, from, to int) {
	apsp := g.AllPairs()
	for u := range apsp {
		for v, dd := range apsp[u] {
			if u == v || dd >= Infinity {
				continue
			}
			if dd > d {
				d, from, to = dd, u, v
			}
		}
	}
	return d, from, to
}

// NextHops computes, for every source vertex, the next vertex on a
// shortest path toward dst. Ties are broken deterministically by
// preferring the edge listed first in adjacency order (callers control
// adjacency insertion order; the topology package inserts mesh edges
// before shortcut edges so mesh paths win ties, reducing RF contention).
// next[v] == -1 when v == dst or dst is unreachable from v.
func (g *Digraph) NextHops(dst int) []int {
	// Reverse-Dijkstra from dst over the transposed graph gives
	// dist-to-dst for every vertex in one pass.
	distTo := g.reverse().ShortestFrom(dst)
	next := make([]int, g.n)
	for v := range next {
		next[v] = -1
		if v == dst || distTo[v] >= Infinity {
			continue
		}
		for _, e := range g.adj[v] {
			if distTo[e.To] < Infinity && e.Weight+distTo[e.To] == distTo[v] {
				next[v] = e.To
				break
			}
		}
		if next[v] == -1 {
			panic(fmt.Sprintf("graph: no consistent next hop from %d to %d", v, dst))
		}
	}
	return next
}

// PathTo extracts one shortest path from src to dst as a vertex sequence
// including both endpoints, using the same deterministic tie-break as
// NextHops. Returns nil if dst is unreachable.
func (g *Digraph) PathTo(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	next := g.NextHops(dst)
	if next[src] == -1 {
		return nil
	}
	path := []int{src}
	for v := src; v != dst; {
		v = next[v]
		path = append(path, v)
		if len(path) > g.n {
			panic("graph: next-hop cycle")
		}
	}
	return path
}

// reverse returns the transposed graph.
func (g *Digraph) reverse() *Digraph {
	r := New(g.n)
	for _, es := range g.adj {
		for _, e := range es {
			r.adj[e.To] = append(r.adj[e.To], Edge{From: e.To, To: e.From, Weight: e.Weight})
		}
	}
	return r
}

// vertexItem/vertexHeap implement the Dijkstra priority queue: a binary
// min-heap on d, typed so that pushes do not box their items.
type vertexItem struct {
	v, d int
}

type vertexHeap []vertexItem

func (h *vertexHeap) push(it vertexItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].d <= q[i].d {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *vertexHeap) pop() vertexItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(q) && q[l].d < q[m].d {
			m = l
		}
		if r < len(q) && q[r].d < q[m].d {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Grid builds a 2D mesh digraph of w x h vertices with bidirectional
// unit-weight edges between 4-neighbors. Vertex id = y*w + x.
func Grid(w, h int) *Digraph {
	g := New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(id(x, y), id(x+1, y), 1)
				g.AddEdge(id(x+1, y), id(x, y), 1)
			}
			if y+1 < h {
				g.AddEdge(id(x, y), id(x, y+1), 1)
				g.AddEdge(id(x, y+1), id(x, y), 1)
			}
		}
	}
	return g
}
