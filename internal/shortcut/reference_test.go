package shortcut

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestSelectorsMatchReference checks the three selectors against a
// straightforward reference implementation that recomputes all-pairs
// shortest paths after every pick and scores greedy candidates by their
// full objective. The edge lists must match exactly, tie-breaks included,
// on random meshes, eligible sets, budgets and frequency matrices, and on
// meshes with one-way links, where some distances are graph.Infinity.
func TestSelectorsMatchReference(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 6
	}
	rng := rand.New(rand.NewSource(13))
	for c := 0; c < cases; c++ {
		w, h := 4+rng.Intn(7), 4+rng.Intn(7)
		g := graph.Grid(w, h)
		n := w * h
		elig := make([]bool, n)
		share := 0.3 + 0.7*rng.Float64()
		for i := range elig {
			elig[i] = rng.Float64() < share
		}
		p := Params{
			Budget:      1 + rng.Intn(16),
			Eligible:    func(id int) bool { return elig[id] },
			MeshW:       w,
			MeshH:       h,
			MinDistance: 2 + rng.Intn(2),
		}
		kind := [...]string{"nil", "dense", "sparse"}[c%3]
		switch kind {
		case "dense":
			p.Freq = make([][]int64, n)
			for x := range p.Freq {
				p.Freq[x] = make([]int64, n)
				for y := range p.Freq[x] {
					// Small values make ties common, exercising the
					// first-wins tie-break.
					p.Freq[x][y] = int64(rng.Intn(4))
				}
			}
		case "sparse":
			p.Freq = make([][]int64, n)
			for k := rng.Intn(3 * n); k >= 0; k-- {
				x, y := rng.Intn(n), rng.Intn(n)
				if p.Freq[x] == nil {
					p.Freq[x] = make([]int64, n)
				}
				p.Freq[x][y] += int64(1 + rng.Intn(50))
			}
		}
		name := fmt.Sprintf("%dx%d/%s/budget%d/min%d", w, h, kind, p.Budget, p.MinDistance)
		checkAgainstReference(t, name, g, p)
	}

	// One-way meshes: every link across one column boundary runs east
	// only, so no router east of it reaches one west of it, and a few
	// more links lose one direction.
	cases = 8
	if testing.Short() {
		cases = 2
	}
	rng = rand.New(rand.NewSource(29))
	for c := 0; c < cases; c++ {
		w, h := 4+rng.Intn(5), 4+rng.Intn(5)
		g := graph.Grid(w, h)
		n := w * h
		cut := rng.Intn(w - 1)
		for y := 0; y < h; y++ {
			g.RemoveEdge(y*w+cut+1, y*w+cut)
		}
		for k := rng.Intn(n / 2); k > 0; k-- {
			x, y := rng.Intn(w-1), rng.Intn(h)
			g.RemoveEdge(y*w+x, y*w+x+1)
		}
		elig := make([]bool, n)
		for i := range elig {
			elig[i] = rng.Float64() < 0.7
		}
		p := Params{
			Budget:   1 + rng.Intn(12),
			Eligible: func(id int) bool { return elig[id] },
			MeshW:    w,
			MeshH:    h,
		}
		kind := "nil"
		if c%2 == 1 {
			kind = "dense"
			p.Freq = make([][]int64, n)
			for x := range p.Freq {
				p.Freq[x] = make([]int64, n)
				for y := range p.Freq[x] {
					p.Freq[x][y] = int64(rng.Intn(4))
				}
			}
		}
		name := fmt.Sprintf("%dx%d/one-way-cut%d/%s/budget%d", w, h, cut, kind, p.Budget)
		if g.AllPairs()[n-1][0] < graph.Infinity {
			t.Fatalf("%s: the cut leaves every pair reachable", name)
		}
		checkAgainstReference(t, name, g, p)
	}
}

// checkAgainstReference compares the selectors on g with their
// references: max-cost and greedy always, region-based when p has a
// frequency matrix.
func checkAgainstReference(t *testing.T, name string, g *graph.Digraph, p Params) {
	t.Helper()
	check := func(sel string, got, want []Edge) {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s %s:\n got  %v\n want %v", name, sel, got, want)
		}
	}
	check("max-cost", SelectMaxCost(g, p), refMaxCost(g, p))
	check("greedy", SelectGreedyPermutation(g, p), refGreedy(g, p))
	if p.Freq != nil {
		check("region", SelectRegionBased(g, p), refRegionBased(g, p))
	}
}

// The reference selectors below recompute everything from scratch after
// every pick. They are deliberately naive and self-contained, so that a
// change to the package's helpers cannot silently change the oracle too.

type refPorts struct{ src, dst map[int]bool }

func newRefPorts() *refPorts { return &refPorts{src: map[int]bool{}, dst: map[int]bool{}} }

func (u *refPorts) ok(p Params, i, j int) bool {
	return i != j && !u.src[i] && !u.dst[j] && p.eligible(i) && p.eligible(j)
}

func (u *refPorts) take(e Edge) { u.src[e.From], u.dst[e.To] = true, true }

func refFreq(freq [][]int64, i, j int) int64 {
	if i >= len(freq) || freq[i] == nil || j >= len(freq[i]) {
		return 0
	}
	return freq[i][j]
}

func refMaxCost(g *graph.Digraph, p Params) []Edge {
	work := g.Clone()
	u := newRefPorts()
	var out []Edge
	for len(out) < p.Budget {
		best, ok := refBestPair(work.AllPairs(), p, u)
		if !ok {
			break
		}
		out = append(out, best)
		u.take(best)
		work.AddEdge(best.From, best.To, 1)
	}
	return out
}

func refBestPair(apsp [][]int, p Params, u *refPorts) (Edge, bool) {
	var best Edge
	var bestCost int64 = -1
	for i := range apsp {
		for j := range apsp {
			if !u.ok(p, i, j) {
				continue
			}
			w := apsp[i][j]
			if w < p.minDist() || w >= graph.Infinity {
				continue
			}
			cost := int64(w)
			if p.Freq != nil {
				f := refFreq(p.Freq, i, j)
				if f == 0 {
					continue
				}
				cost = f * int64(w)
			}
			if cost > bestCost {
				bestCost, best = cost, Edge{From: i, To: j}
			}
		}
	}
	return best, bestCost >= 0
}

func refObjective(apsp [][]int, p Params, via func(x, y int) int) int64 {
	var total int64
	for x := range apsp {
		for y := range apsp {
			if x == y {
				continue
			}
			f := int64(1)
			if p.Freq != nil {
				if f = refFreq(p.Freq, x, y); f == 0 {
					continue
				}
			}
			d := apsp[x][y]
			if v := via(x, y); v < d {
				d = v
			}
			total += f * int64(d)
		}
	}
	return total
}

func refGreedy(g *graph.Digraph, p Params) []Edge {
	work := g.Clone()
	u := newRefPorts()
	var out []Edge
	for len(out) < p.Budget {
		apsp := work.AllPairs()
		bestTotal := refObjective(apsp, p, func(int, int) int { return graph.Infinity })
		var best Edge
		found := false
		for i := range apsp {
			for j := range apsp {
				if !u.ok(p, i, j) || apsp[i][j] < p.minDist() {
					continue
				}
				t := refObjective(apsp, p, func(x, y int) int { return apsp[x][i] + 1 + apsp[j][y] })
				if t < bestTotal {
					bestTotal, best, found = t, Edge{From: i, To: j}, true
				}
			}
		}
		if !found {
			break
		}
		out = append(out, best)
		u.take(best)
		work.AddEdge(best.From, best.To, 1)
	}
	return out
}

func refRegionBased(g *graph.Digraph, p Params) []Edge {
	type region struct{ x0, y0 int }
	var regs []region
	for y := 0; y+RegionSize <= p.MeshH; y++ {
		for x := 0; x+RegionSize <= p.MeshW; x++ {
			regs = append(regs, region{x, y})
		}
	}
	ids := func(r region) []int {
		var out []int
		for dy := 0; dy < RegionSize; dy++ {
			for dx := 0; dx < RegionSize; dx++ {
				out = append(out, (r.y0+dy)*p.MeshW+r.x0+dx)
			}
		}
		return out
	}
	overlaps := func(a, b region) bool {
		return abs(a.x0-b.x0) < RegionSize && abs(a.y0-b.y0) < RegionSize
	}
	pairEdge := func(apsp [][]int, u *refPorts, a, b []int) (Edge, bool) {
		score := func(cand int, toward func(x, y int) int) float64 {
			var s float64
			for _, x := range a {
				for _, y := range b {
					if f := refFreq(p.Freq, x, y); f != 0 && x != y {
						s += float64(f) * float64(apsp[x][y]) / float64(1+apsp[cand][toward(x, y)])
					}
				}
			}
			return s
		}
		bestSrc, bestDst := -1, -1
		var bestSrcScore, bestDstScore float64 = -1, -1
		for _, i := range a {
			if u.src[i] || !p.eligible(i) {
				continue
			}
			if s := score(i, func(x, _ int) int { return x }); s > bestSrcScore {
				bestSrcScore, bestSrc = s, i
			}
		}
		for _, j := range b {
			if u.dst[j] || !p.eligible(j) {
				continue
			}
			if s := score(j, func(_, y int) int { return y }); s > bestDstScore {
				bestDstScore, bestDst = s, j
			}
		}
		if bestSrc < 0 || bestDst < 0 || bestSrc == bestDst || apsp[bestSrc][bestDst] < p.minDist() {
			return Edge{}, false
		}
		return Edge{From: bestSrc, To: bestDst}, true
	}
	regionEdge := func(apsp [][]int, u *refPorts) (Edge, bool) {
		type scored struct {
			a, b []int
			c    int64
		}
		var pairs []scored
		for ai := range regs {
			for bi := range regs {
				if ai == bi || overlaps(regs[ai], regs[bi]) {
					continue
				}
				a, b := ids(regs[ai]), ids(regs[bi])
				var c int64
				for _, x := range a {
					for _, y := range b {
						if x != y {
							c += refFreq(p.Freq, x, y) * int64(apsp[x][y])
						}
					}
				}
				if c > 0 {
					pairs = append(pairs, scored{a, b, c})
				}
			}
		}
		// Stable descending insertion sort: equal costs keep enumeration
		// order.
		for i := 1; i < len(pairs); i++ {
			for j := i; j > 0 && pairs[j].c > pairs[j-1].c; j-- {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			}
		}
		for _, pr := range pairs {
			if e, ok := pairEdge(apsp, u, pr.a, pr.b); ok {
				return e, true
			}
		}
		return Edge{}, false
	}

	work := g.Clone()
	u := newRefPorts()
	var out []Edge
	for len(out) < p.Budget {
		apsp := work.AllPairs()
		first, second := func() (Edge, bool) { return refBestPair(apsp, p, u) },
			func() (Edge, bool) { return regionEdge(apsp, u) }
		if len(out)%2 == 1 {
			first, second = second, first
		}
		e, ok := first()
		if !ok {
			e, ok = second()
		}
		if !ok {
			break
		}
		out = append(out, e)
		u.take(e)
		work.AddEdge(e.From, e.To, 1)
	}
	return out
}
