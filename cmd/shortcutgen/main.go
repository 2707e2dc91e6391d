// Command shortcutgen runs the paper's shortcut-selection algorithms and
// prints the chosen edges plus an ASCII rendering of the overlay (the
// Figure 2(b)/2(c) view). With no -heuristic, app mode prints
// shortcut.Adaptive's set, the one every simulated adaptive design uses
// (the cheaper of permutation and region); -heuristic runs one selector
// alone, for comparison.
//
// Usage:
//
//	shortcutgen -mode arch|app [-heuristic maxcost|permutation|region]
//	            [-workload 1hotspot] [-budget 16] [-rf 50] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/shortcut"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	mode := flag.String("mode", "arch", "arch (design-time, W objective) or app (F*W objective)")
	heuristic := flag.String("heuristic", "", "maxcost, permutation or region (default: maxcost in arch mode; in app mode the adaptive designs' set, the cheaper of permutation and region)")
	workload := flag.String("workload", "1hotspot", "workload profiled for app mode")
	budget := flag.Int("budget", 16, "number of shortcuts")
	rf := flag.Int("rf", 50, "RF-enabled routers for app mode (25, 50, 100)")
	seed := flag.Int64("seed", 1, "random seed")
	profileCycles := flag.Int64("profile-cycles", 20000, "profiling dry-run length")
	flag.Parse()

	m := topology.New10x10()
	g := m.Graph()
	p := shortcut.Params{
		Budget:   *budget,
		Eligible: m.ShortcutEligible,
		MeshW:    m.W, MeshH: m.H,
	}
	h := *heuristic
	rfEnabled := m.RFPlacement(*rf)
	if *mode == "app" {
		mk, err := experiments.LookupWorkload(m, *workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		p.Freq = traffic.FrequencyMatrix(mk(0, *seed), m.N(), *profileCycles)
		rfSet := map[int]bool{}
		for _, id := range rfEnabled {
			rfSet[id] = true
		}
		p.Eligible = func(id int) bool { return rfSet[id] && m.ShortcutEligible(id) }
	} else if h == "" {
		h = "maxcost"
	}

	var edges []shortcut.Edge
	switch h {
	case "":
		h = "default (adaptive designs' set)"
		edges = shortcut.Adaptive(m, rfEnabled, p.Freq, *budget)
	case "maxcost":
		edges = shortcut.SelectMaxCost(g, p)
	case "permutation":
		edges = shortcut.SelectGreedyPermutation(g, p)
	case "region":
		if p.Freq == nil {
			fmt.Fprintln(os.Stderr, "region heuristic requires -mode app")
			os.Exit(2)
		}
		edges = shortcut.SelectRegionBased(g, p)
	default:
		fmt.Fprintf(os.Stderr, "unknown heuristic %q\n", h)
		os.Exit(2)
	}

	if err := shortcut.Validate(edges, p); err != nil {
		fmt.Fprintf(os.Stderr, "selection violated constraints: %v\n", err)
		os.Exit(1)
	}

	before := g.TotalPairCost()
	aug := shortcut.Apply(g, edges)
	after := aug.TotalPairCost()
	db, _, _ := g.Diameter()
	da, _, _ := aug.Diameter()
	fmt.Printf("mode=%s heuristic=%s budget=%d\n", *mode, h, *budget)
	fmt.Printf("total pair cost: %d -> %d (%.1f%% reduction)\n",
		before, after, 100*(1-float64(after)/float64(before)))
	fmt.Printf("diameter:        %d -> %d\n\n", db, da)
	if p.Freq != nil {
		wb := graph.WeightedCost(g.AllPairs(), p.Freq)
		wa := graph.WeightedCost(aug.AllPairs(), p.Freq)
		fmt.Printf("weighted (F*W) cost: %d -> %d (%.1f%% reduction)\n\n",
			wb, wa, 100*(1-float64(wa)/float64(wb)))
	}
	for i, e := range edges {
		cf, ct := m.Coord(e.From), m.Coord(e.To)
		fmt.Printf("%2d: (%d,%d) -> (%d,%d)  span %d hops\n",
			i+1, cf.X, cf.Y, ct.X, ct.Y, m.Manhattan(e.From, e.To))
	}
	fmt.Println()
	fmt.Println(renderOverlay(m, edges))
}

// renderOverlay draws the mesh with shortcut sources (S), destinations
// (D), both (B), memory corners (M), caches (c) and cores (.).
func renderOverlay(m *topology.Mesh, edges []shortcut.Edge) string {
	src := map[int]bool{}
	dst := map[int]bool{}
	for _, e := range edges {
		src[e.From] = true
		dst[e.To] = true
	}
	return m.Render(func(id int) rune {
		switch {
		case src[id] && dst[id]:
			return 'B'
		case src[id]:
			return 'S'
		case dst[id]:
			return 'D'
		}
		return 0
	})
}
