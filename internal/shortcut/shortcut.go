// Package shortcut implements the paper's RF-I shortcut-selection
// algorithms (Section 3.2):
//
//   - the permutation-graph greedy heuristic of Figure 3(a), which tries
//     every candidate edge against the full objective (O(B*V^5) naively,
//     as the paper states; here each pick tabulates, per free destination
//     and source row, the gain as a function of the distance to the
//     candidate source, then scores each candidate in O(V):
//     O(B*(|J|*V*(V+D) + |I|*|J|*V)) for I and J the free sources and
//     destinations and D the largest distance, so O(B*V^3));
//   - the max-cost heuristic of Figure 3(b), which repeatedly adds the
//     most expensive remaining pair (O(B*V^2) after one APSP);
//   - application-specific variants of both, which weight the objective by
//     inter-router communication frequency F(x,y) (Section 3.2.2);
//   - the region-based selector that alternates pair placement with
//     region-to-region placement over 3x3 sub-meshes, so that several
//     shortcuts can serve one communication hotspot;
//   - Static and Adaptive, the architecture-specific and the
//     application-specific selection every simulated static and adaptive
//     design uses: the max-cost heuristic and the cheaper of the weighted
//     permutation-graph greedy and the region set, both memoized by
//     content.
//
// Every selector computes all-pairs shortest paths once and updates them
// in place after each pick (graph.Relax, O(V^2) per added edge), instead
// of rerunning APSP.
//
// All selectors respect the paper's port constraints: at most one inbound
// and one outbound shortcut per router, and no shortcut may start or end
// on an ineligible router (the four memory corners, and -- for adaptive
// configurations -- any router that is not RF-enabled).
package shortcut

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/sweepcache"
	"repro/internal/topology"
)

// Edge is a selected unidirectional shortcut.
type Edge struct {
	From, To int
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// Params configures a selection run.
type Params struct {
	// Budget is the number of unidirectional shortcuts to select
	// (B = 16 in the paper: 256 B of RF-I bandwidth at 16 B per shortcut).
	Budget int

	// Eligible reports whether a router may be a shortcut endpoint.
	// Nil means every router is eligible. The paper excludes the four
	// memory corners always, and restricts endpoints to RF-enabled
	// routers in adaptive configurations.
	Eligible func(id int) bool

	// Freq is the inter-router communication-frequency matrix F(x,y)
	// (number of messages sent from x to y). Nil selects the
	// architecture-specific objective, which weights every pair equally.
	Freq [][]int64

	// MeshW and MeshH give the mesh dimensions, needed only by the
	// region-based selector to enumerate 3x3 sub-mesh regions.
	MeshW, MeshH int

	// MinDistance is the minimum current shortest-path distance between a
	// candidate's endpoints; pairs closer than this gain nothing from a
	// single-cycle shortcut. Defaults to 2.
	MinDistance int
}

func (p Params) minDist() int {
	if p.MinDistance <= 0 {
		return 2
	}
	return p.MinDistance
}

func (p Params) eligible(id int) bool {
	return p.Eligible == nil || p.Eligible(id)
}

// state is one selection run: the current all-pairs distances of the
// augmented graph, the one-inbound/one-outbound port constraint, and the
// edges picked so far.
type state struct {
	apsp     [][]int
	src, dst []bool
	out      []Edge
}

func newState(apsp [][]int) *state {
	return &state{apsp: apsp, src: make([]bool, len(apsp)), dst: make([]bool, len(apsp))}
}

func (s *state) ok(p Params, i, j int) bool {
	return i != j && !s.src[i] && !s.dst[j] && p.eligible(i) && p.eligible(j)
}

// take adds a weight-1 shortcut and updates the distances in place.
func (s *state) take(e Edge) {
	s.out = append(s.out, e)
	s.src[e.From] = true
	s.dst[e.To] = true
	graph.Relax(s.apsp, graph.Edge{From: e.From, To: e.To, Weight: 1})
}

// SelectMaxCost implements the Figure 3(b) heuristic on the
// architecture-specific objective: repeatedly add a weight-1 edge between
// the pair with the maximum current shortest-path cost, updating
// distances after every addition, until the budget is exhausted. If
// p.Freq is non-nil the cost of a pair is F(x,y)*W(x,y) instead of W(x,y)
// (the Section 3.2.2 application-specific objective).
//
// The input graph is not modified; the augmented graph can be obtained
// with Apply.
func SelectMaxCost(g *graph.Digraph, p Params) []Edge {
	s := newState(g.AllPairs())
	for len(s.out) < p.Budget {
		best, ok := bestPair(s, p)
		if !ok {
			break
		}
		s.take(best)
	}
	return s.out
}

// bestPair scans all eligible unused pairs and returns the one with the
// highest cost under p's objective.
func bestPair(s *state, p Params) (Edge, bool) {
	var best Edge
	var bestCost int64 = -1
	for i, row := range s.apsp {
		if s.src[i] || !p.eligible(i) {
			continue
		}
		for j, w := range row {
			if !s.ok(p, i, j) || w < p.minDist() || w >= graph.Infinity {
				continue
			}
			cost := int64(w)
			if p.Freq != nil {
				f := freqAt(p.Freq, i, j)
				if f == 0 {
					continue
				}
				cost = f * int64(w)
			}
			if cost > bestCost {
				bestCost = cost
				best = Edge{From: i, To: j}
			}
		}
	}
	return best, bestCost >= 0
}

func freqAt(freq [][]int64, i, j int) int64 {
	if i >= len(freq) || freq[i] == nil || j >= len(freq[i]) {
		return 0
	}
	return freq[i][j]
}

// SelectGreedyPermutation implements the Figure 3(a) heuristic: for every
// candidate edge (i,j), evaluate the total objective of the permutation
// graph G' = G + (i,j) and keep the candidate with the best improvement;
// repeat until the budget is exhausted. The objective is the sum over all
// pairs of W(x,y), or of F(x,y)*W(x,y) when p.Freq is non-nil (the
// unweighted objective is F = 1 everywhere).
//
// Rather than recomputing APSP for every candidate (the paper's O(B*V^5)
// bound), a candidate is scored by its gain, the objective it removes:
// with the new edge, d'(x,y) = min(d(x,y), d(x,i) + 1 + d(j,y)), so
//
//	gain(i,j) = sum_x G_{j,x}(d(x,i)+1),
//	G_{j,x}(v) = sum_y F(x,y) * max(0, s - v),  s = d(x,y) - d(j,y).
//
// G_{j,x} depends on the source i only through v, which is at most D+1
// for the largest finite distance D, so each pick tabulates it once per
// free destination j and row x, from one histogram of s and its suffix
// sums (O(V+D)), and then scores each candidate in O(V). A pick costs
// O(|J|*V*(V+D) + |I|*|J|*V), so the whole selection O(B*V^3) on a mesh.
// The distances are updated in place after each pick (graph.Relax).
// Comparing gains strictly, from zero, in source-then-destination order
// keeps the first candidate among equals, exactly as comparing the
// totals strictly would.
func SelectGreedyPermutation(g *graph.Digraph, p Params) []Edge {
	s := newState(g.AllPairs())
	n := len(s.apsp)
	freq := denseFreq(p.Freq, n)
	if freq == nil {
		ones := make([]int64, n)
		for y := range ones {
			ones[y] = 1
		}
		freq = make([][]int64, n)
		for x := range freq {
			freq[x] = ones
		}
	}
	// col[v][x] = d(x,v): the transposed distances, so that scoring a
	// source reads contiguous memory.
	col := make([][]int, n)
	for v := range col {
		col[v] = make([]int, n)
	}
	gains := make([]int64, n*n)
	var table, cnt, sum []int64
	for len(s.out) < p.Budget {
		maxD := 0
		for x, row := range s.apsp {
			for v, d := range row {
				col[v][x] = d
				if d < graph.Infinity && d > maxD {
					maxD = d
				}
			}
		}
		// table[x*span+d] = G_{j,x}(d+1) for d = 0..D; histogram bucket
		// top (s >= D+2) collects every s that exceeds all v.
		span, top := maxD+1, maxD+2
		table = slices.Grow(table[:0], n*span)[:n*span]
		cnt = slices.Grow(cnt[:0], top+1)[:top+1]
		sum = slices.Grow(sum[:0], top+1)[:top+1]
		clear(gains)
		for j := 0; j < n; j++ {
			if s.dst[j] || !p.eligible(j) {
				continue
			}
			rowJ := s.apsp[j]
			for x, rowX := range s.apsp {
				gx := table[x*span : (x+1)*span]
				fx := freq[x]
				if fx == nil {
					clear(gx)
					continue
				}
				clear(cnt)
				clear(sum)
				for y, dxy := range rowX {
					// Only s > v >= 1 can shorten a path. An unreachable
					// (x,y) gives a huge s: it lands in the top bucket
					// but adds its true value, as d(x,y) - v - d(j,y)
					// would.
					sd := dxy - rowJ[y]
					if sd < 2 || fx[y] == 0 {
						continue
					}
					b := min(sd, top)
					cnt[b] += fx[y]
					sum[b] += fx[y] * int64(sd)
				}
				// G(v) = sum_{s>v} F*s - v * sum_{s>v} F.
				var above, aboveSum int64
				for v := span; v >= 1; v-- {
					above += cnt[v+1]
					aboveSum += sum[v+1]
					gx[v-1] = aboveSum - int64(v)*above
				}
			}
			for i := 0; i < n; i++ {
				if !s.ok(p, i, j) || s.apsp[i][j] < p.minDist() {
					continue
				}
				var gain int64
				for x, dxi := range col[i] {
					if dxi < graph.Infinity {
						gain += table[x*span+dxi]
					}
				}
				gains[i*n+j] = gain
			}
		}
		var best Edge
		var bestGain int64 // only accept strict improvements
		for k, gain := range gains {
			if gain > bestGain {
				bestGain = gain
				best = Edge{From: k / n, To: k % n}
			}
		}
		if bestGain == 0 {
			break
		}
		s.take(best)
	}
	return s.out
}

// denseFreq returns freq with every non-nil row n entries long (nil for a
// nil freq), so inner loops can index it without bounds juggling.
func denseFreq(freq [][]int64, n int) [][]int64 {
	if freq == nil {
		return nil
	}
	out := make([][]int64, n)
	for x := 0; x < n && x < len(freq); x++ {
		switch row := freq[x]; {
		case row == nil:
		case len(row) == n:
			out[x] = row
		default:
			out[x] = make([]int64, n)
			copy(out[x], row)
		}
	}
	return out
}

// Region is a 3x3 sub-mesh, identified by its lower-left corner.
type Region struct {
	X0, Y0 int
	ids    []int
}

// RegionSize is the side of the square communication regions the paper's
// region-based selector uses.
const RegionSize = 3

// regions enumerates all 3x3 windows of a WxH mesh.
func regions(w, h int) []Region {
	var out []Region
	for y := 0; y+RegionSize <= h; y++ {
		for x := 0; x+RegionSize <= w; x++ {
			r := Region{X0: x, Y0: y}
			for dy := 0; dy < RegionSize; dy++ {
				for dx := 0; dx < RegionSize; dx++ {
					r.ids = append(r.ids, (y+dy)*w+(x+dx))
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// overlaps reports whether two regions share any router.
func (r Region) overlaps(o Region) bool {
	return abs(r.X0-o.X0) < RegionSize && abs(r.Y0-o.Y0) < RegionSize
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SelectRegionBased implements the Section 3.2.2 application-specific
// selector: it alternates between placing a pair shortcut (the max-F*W
// pair, as in SelectMaxCost) and placing a region shortcut. A region step
// picks the pair of non-overlapping 3x3 regions (I,J) maximizing
// C_Region(I,J), then adds the best eligible edge (i,j) with i in I and
// j in J. This lets multiple shortcuts serve a single hotspot by placing
// their endpoints at routers near the hotspot, which pure pair selection
// forbids via the one-port-per-router rule.
//
// p.Freq must be non-nil and p.MeshW/p.MeshH must be set.
func SelectRegionBased(g *graph.Digraph, p Params) []Edge {
	if p.Freq == nil {
		panic("shortcut: SelectRegionBased requires a frequency matrix")
	}
	if p.MeshW < RegionSize || p.MeshH < RegionSize {
		panic("shortcut: SelectRegionBased requires mesh dimensions")
	}
	s := newState(g.AllPairs())
	rs := &regionScratch{regs: regions(p.MeshW, p.MeshH), freq: denseFreq(p.Freq, len(s.apsp))}
	for len(s.out) < p.Budget {
		var e Edge
		var ok bool
		if len(s.out)%2 == 0 {
			e, ok = bestPair(s, p)
			if !ok {
				e, ok = rs.bestEdge(s, p)
			}
		} else {
			e, ok = rs.bestEdge(s, p)
			if !ok {
				// No region pair has remaining frequency; fall back to
				// pair placement so the budget is not wasted.
				e, ok = bestPair(s, p)
			}
		}
		if !ok {
			break
		}
		s.take(e)
	}
	return s.out
}

// regionScratch is a region-based selection's regions and the buffers
// its region steps reuse.
type regionScratch struct {
	regs []Region
	freq [][]int64 // p.Freq, dense
	// colSum[a*V+y] = S_a(y), the F*W traffic from region a to router y.
	colSum []int64
	pairs  regionHeap
}

type regionPair struct {
	a, b int // indices into regs
	c    int64
}

// bestEdge finds the max-C_Region non-overlapping region pair and
// returns the best edge inside it. C_Region(A,B) is the sum over x in A,
// y in B of F(x,y) * W(x,y); traffic counts regardless of whether the
// routers' shortcut ports are taken -- that is exactly the point of
// region-based selection: a hotspot with an occupied port still attracts
// shortcuts to its neighbors. Region pairs with zero cost are skipped; if
// the best region pair yields no eligible edge the next best pair is
// tried.
//
// The costs come from per-region column sums S_A(y) = sum over x in A of
// F(x,y) * W(x,y), so C_Region(A,B) = sum over y in B of S_A(y): O(V) per
// region and O(|B|) per pair. (W(x,x) = 0, so pairs with x = y add
// nothing.)
//
// Within the chosen region pair (I,J) the edge endpoints are picked by
// traffic proximity: the source i in I (with a free outbound port)
// closest to I's heavy senders and the destination j in J (free inbound
// port) closest to J's heavy receivers, weighted by message counts. This
// is what lets a second or third shortcut serve a hotspot whose own
// inbound port is already taken: the edge lands on an unused neighbor.
func (rs *regionScratch) bestEdge(s *state, p Params) (Edge, bool) {
	n := len(s.apsp)
	rs.colSum = slices.Grow(rs.colSum[:0], len(rs.regs)*n)[:len(rs.regs)*n]
	clear(rs.colSum)
	for a, r := range rs.regs {
		sa := rs.colSum[a*n : (a+1)*n]
		for _, x := range r.ids {
			fx, rowX := rs.freq[x], s.apsp[x]
			if fx == nil {
				continue
			}
			for y, f := range fx {
				if f != 0 {
					sa[y] += f * int64(rowX[y])
				}
			}
		}
	}
	rs.pairs = rs.pairs[:0]
	for ai := range rs.regs {
		sa := rs.colSum[ai*n : (ai+1)*n]
		for bi, rb := range rs.regs {
			if ai == bi || rs.regs[ai].overlaps(rb) {
				continue
			}
			var c int64
			for _, y := range rb.ids {
				c += sa[y]
			}
			if c > 0 {
				rs.pairs = append(rs.pairs, regionPair{ai, bi, c})
			}
		}
	}
	// Try the pairs best first. Usually the first yields an edge, so a
	// heap, not a full sort, orders them.
	heap.Init(&rs.pairs)
	for len(rs.pairs) > 0 {
		pr := heap.Pop(&rs.pairs).(regionPair)
		if e, ok := regionPairEdge(s, p, rs.regs[pr.a], rs.regs[pr.b]); ok {
			return e, true
		}
	}
	return Edge{}, false
}

// regionHeap orders region pairs by descending cost, equal costs in
// enumeration order (by a, then b): the order a stable sort by cost
// gives.
type regionHeap []regionPair

func (h regionHeap) Len() int { return len(h) }

func (h regionHeap) Less(i, j int) bool {
	x, y := h[i], h[j]
	if x.c != y.c {
		return x.c > y.c
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

func (h regionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *regionHeap) Push(x any) { *h = append(*h, x.(regionPair)) }

func (h *regionHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// regionPairEdge picks the concrete edge (i,j), i in A, j in B, for a
// region step. Endpoint scores weight each flow (x in A) -> (y in B) by
// 1/(1+dist(candidate, flow endpoint)), so candidates sitting on or next
// to the traffic score highest.
func regionPairEdge(s *state, p Params, a, b Region) (Edge, bool) {
	apsp := s.apsp
	bestSrc, bestDst := -1, -1
	var bestSrcScore, bestDstScore float64 = -1, -1
	for _, i := range a.ids {
		if s.src[i] || !p.eligible(i) {
			continue
		}
		var sc float64
		for _, x := range a.ids {
			for _, y := range b.ids {
				if f := freqAt(p.Freq, x, y); f != 0 && x != y {
					sc += float64(f) * float64(apsp[x][y]) / float64(1+apsp[i][x])
				}
			}
		}
		if sc > bestSrcScore {
			bestSrcScore, bestSrc = sc, i
		}
	}
	for _, j := range b.ids {
		if s.dst[j] || !p.eligible(j) {
			continue
		}
		var sc float64
		for _, x := range a.ids {
			for _, y := range b.ids {
				if f := freqAt(p.Freq, x, y); f != 0 && x != y {
					sc += float64(f) * float64(apsp[x][y]) / float64(1+apsp[j][y])
				}
			}
		}
		if sc > bestDstScore {
			bestDstScore, bestDst = sc, j
		}
	}
	if bestSrc < 0 || bestDst < 0 || bestSrc == bestDst {
		return Edge{}, false
	}
	if apsp[bestSrc][bestDst] < p.minDist() {
		return Edge{}, false
	}
	return Edge{From: bestSrc, To: bestDst}, true
}

// selectionMemo holds Static's and Adaptive's selections by content.
// A key's leading byte names the selector, so the two never share an
// entry. An entry is a key of at most 33 bytes and 8 bytes per edge, so
// the bound costs little; it only stops a long-running service from
// growing without limit.
var selectionMemo = sweepcache.New(1024)

// The selector kinds that lead a selectionMemo key.
const (
	staticKind   byte = 's'
	adaptiveKind byte = 'a'
)

// MemoStats snapshots the selection memo's counters.
func MemoStats() sweepcache.Stats { return selectionMemo.Stats() }

// memoized returns the selection cached under key, running sel on a
// miss, with single flight. Every call returns a fresh slice.
func memoized(key string, sel func() []Edge) []Edge {
	// The selection cannot fail and the context is never cancelled, so
	// Do cannot return an error.
	blob, _, _ := selectionMemo.Do(context.Background(), key, func() ([]byte, error) {
		edges := sel()
		blob := make([]byte, 0, 8*len(edges))
		for _, e := range edges {
			blob = binary.LittleEndian.AppendUint32(blob, uint32(e.From))
			blob = binary.LittleEndian.AppendUint32(blob, uint32(e.To))
		}
		return blob, nil
	})
	if len(blob) == 0 {
		return nil
	}
	edges := make([]Edge, len(blob)/8)
	for i := range edges {
		edges[i] = Edge{
			From: int(binary.LittleEndian.Uint32(blob[8*i:])),
			To:   int(binary.LittleEndian.Uint32(blob[8*i+4:])),
		}
	}
	return edges
}

// Static returns the architecture-specific shortcut set (Section 3.2.1)
// for mesh m: SelectMaxCost over the mesh graph, with endpoints
// restricted to the routers m allows shortcuts on. The set depends only
// on the mesh shape and the budget, so it is memoized by those, with
// single flight. Every call returns a fresh slice.
func Static(m *topology.Mesh, budget int) []Edge {
	key := []byte{staticKind}
	for _, v := range []int{m.W, m.H, budget} {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	return memoized(string(key), func() []Edge {
		return SelectMaxCost(m.Graph(), Params{Budget: budget, Eligible: m.ShortcutEligible})
	})
}

// Adaptive returns the application-specific shortcut set (Section 3.2.2)
// for mesh m, with endpoints restricted to the routers in rfEnabled that
// m allows shortcuts on. It runs both of the paper's heuristics for this
// case under the F(x,y)*W(x,y) objective -- SelectGreedyPermutation and
// SelectRegionBased -- and keeps the set with the lower weighted cost,
// the region set on a tie. The greedy set wins on the paper's workloads,
// but not on every profile: sparse or few-hot-pair matrices and very low
// injection rates can favor the region set. A nil freq selects the
// unweighted objective, which only the greedy serves.
//
// Selections are memoized by content -- mesh shape, eligible routers,
// budget and freq -- with single flight, so a repeated call costs a hash
// of freq. Every call returns a fresh slice.
func Adaptive(m *topology.Mesh, rfEnabled []int, freq [][]int64, budget int) []Edge {
	eligible := make([]bool, m.N())
	for _, id := range rfEnabled {
		if id >= 0 && id < len(eligible) && m.ShortcutEligible(id) {
			eligible[id] = true
		}
	}
	return memoized(adaptiveKey(m, eligible, freq, budget), func() []Edge {
		return cheaperSet(m.Graph(), Params{
			Budget:   budget,
			Eligible: func(id int) bool { return eligible[id] },
			Freq:     freq,
			MeshW:    m.W,
			MeshH:    m.H,
		})
	})
}

// cheaperSet is Adaptive's selection: the greedy set, or the region set
// when p has a frequency matrix and a mesh of at least one region and the
// region set's F*W cost is no higher.
func cheaperSet(g *graph.Digraph, p Params) []Edge {
	greedy := SelectGreedyPermutation(g, p)
	if p.Freq == nil || p.MeshW < RegionSize || p.MeshH < RegionSize {
		return greedy
	}
	region := SelectRegionBased(g, p)
	base := g.AllPairs()
	cost := func(edges []Edge) int64 {
		apsp := make([][]int, len(base))
		for x, row := range base {
			apsp[x] = slices.Clone(row)
		}
		for _, e := range edges {
			graph.Relax(apsp, graph.Edge{From: e.From, To: e.To, Weight: 1})
		}
		return graph.WeightedCost(apsp, p.Freq)
	}
	if cost(region) <= cost(greedy) {
		return region
	}
	return greedy
}

// adaptiveKey is the adaptive kind byte and the sha256 of everything
// Adaptive's selection reads. Lengths are written before contents, and a
// nil freq or row as length -1, so a nil row and a row of zeros get
// different keys.
func adaptiveKey(m *topology.Mesh, eligible []bool, freq [][]int64, budget int) string {
	h := sha256.New()
	var buf []byte
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	put(int64(m.W))
	put(int64(m.H))
	put(int64(budget))
	for _, ok := range eligible {
		if ok {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	if freq == nil {
		put(-1)
	} else {
		put(int64(len(freq)))
	}
	for _, row := range freq {
		// Hash what is buffered before each row, so the buffer never
		// holds more than one row.
		h.Write(buf)
		buf = buf[:0]
		if row == nil {
			put(-1)
			continue
		}
		put(int64(len(row)))
		for _, f := range row {
			put(f)
		}
	}
	h.Write(buf)
	return string(adaptiveKind) + string(h.Sum(nil))
}

// Apply returns a clone of g augmented with the selected shortcuts as
// weight-1 edges.
func Apply(g *graph.Digraph, edges []Edge) *graph.Digraph {
	out := g.Clone()
	for _, e := range edges {
		out.AddEdge(e.From, e.To, 1)
	}
	return out
}

// Validate checks that a shortcut set satisfies the paper's constraints:
// within budget, unique source and destination ports, eligible endpoints.
// It returns a descriptive error for the first violation found.
func Validate(edges []Edge, p Params) error {
	if len(edges) > p.Budget {
		return fmt.Errorf("shortcut: %d edges exceed budget %d", len(edges), p.Budget)
	}
	srcs := map[int]bool{}
	dsts := map[int]bool{}
	for _, e := range edges {
		if e.From == e.To {
			return fmt.Errorf("shortcut: self edge at %d", e.From)
		}
		if !p.eligible(e.From) {
			return fmt.Errorf("shortcut: ineligible source %d", e.From)
		}
		if !p.eligible(e.To) {
			return fmt.Errorf("shortcut: ineligible destination %d", e.To)
		}
		if srcs[e.From] {
			return fmt.Errorf("shortcut: router %d has two outbound shortcuts", e.From)
		}
		if dsts[e.To] {
			return fmt.Errorf("shortcut: router %d has two inbound shortcuts", e.To)
		}
		srcs[e.From] = true
		dsts[e.To] = true
	}
	return nil
}
