package experiments

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Claim pairs one of the paper's headline numbers with our measurement.
type Claim struct {
	Name     string
	Paper    float64 // the paper's reported value (ratio vs baseline)
	Measured float64
}

// Delta returns measured - paper in percentage points.
func (c Claim) Delta() float64 { return (c.Measured - c.Paper) * 100 }

// metric is the normalized value a claim reads.
type metric int

const (
	latencyRatio metric = iota
	powerRatio
)

// claimRow is one of the paper's headline claims as data: its name, the
// paper's value, the figure series it is measured on (a Figure 7/8
// design, or a Figure 9 configuration) and the metric read from that
// series' geometric mean over the traces.
type claimRow struct {
	name   string
	paper  float64
	series series
	metric metric
}

// fig78 is a Figure 7/8 design's series: the plain traces, normalized to
// the 16 B baseline.
func fig78(kind DesignKind, rfRouters int, w tech.LinkWidth) series {
	return series{design: Design{Kind: kind, RFRouters: rfRouters, Width: w}}
}

// claimTable holds the paper's headline claims (Section 5 and the
// abstract), in the order Summary reports them.
var claimTable = []claimRow{
	{"static shortcuts: latency vs 16B baseline", 0.80, fig78(Static, 0, tech.Width16B), latencyRatio},
	{"static shortcuts: power vs 16B baseline", 1.11, fig78(Static, 0, tech.Width16B), powerRatio},
	{"adaptive-50: latency vs 16B baseline", 0.68, fig78(Adaptive, 50, tech.Width16B), latencyRatio},
	{"adaptive-50: power vs 16B baseline", 1.24, fig78(Adaptive, 50, tech.Width16B), powerRatio},
	{"adaptive-25: latency vs 16B baseline", 0.72, fig78(Adaptive, 25, tech.Width16B), latencyRatio},
	{"adaptive-25: power vs 16B baseline", 1.15, fig78(Adaptive, 25, tech.Width16B), powerRatio},

	{"8B baseline: power vs 16B", 0.52, fig78(Baseline, 0, tech.Width8B), powerRatio},
	{"8B baseline: latency vs 16B", 1.04, fig78(Baseline, 0, tech.Width8B), latencyRatio},
	{"4B baseline: power vs 16B", 0.28, fig78(Baseline, 0, tech.Width4B), powerRatio},
	{"4B baseline: latency vs 16B", 1.27, fig78(Baseline, 0, tech.Width4B), latencyRatio},
	{"4B static: power vs 16B baseline", 0.33, fig78(Static, 0, tech.Width4B), powerRatio},
	{"4B static: latency vs 16B baseline", 1.11, fig78(Static, 0, tech.Width4B), latencyRatio},
	{"4B adaptive: power vs 16B baseline", 0.38, fig78(Adaptive, 50, tech.Width4B), powerRatio},
	{"4B adaptive: latency vs 16B baseline", 0.99, fig78(Adaptive, 50, tech.Width4B), latencyRatio},

	{"RF multicast: latency vs baseline", 0.86, fig9("MC-20"), latencyRatio},
	{"RF multicast: power vs baseline", 1.11, fig9("MC-20"), powerRatio},
	{"MC+SC: latency vs baseline", 0.63, fig9("MC+SC-20"), latencyRatio},
	{"MC+SC: power vs baseline", 1.25, fig9("MC+SC-20"), powerRatio},
}

// claimSeries lists the series the claim table reads, one per row.
func claimSeries() []series {
	ss := make([]series, len(claimTable))
	for i, c := range claimTable {
		ss[i] = c.series
	}
	return ss
}

// Summary regenerates the paper's headline claims from fresh simulations
// and pairs each with the paper's number. All values are ratios versus
// the 16 B baseline mesh, delivering multicasts as unicast expansions
// for the Figure 9 claims (latency and power; < 1 means reduced). It
// simulates only the points the claim table reads, each once.
func Summary(m *topology.Mesh, opts Options) []Claim {
	means := geoMeans(normalize(m, claimSeries(), opts, relative))
	claims := make([]Claim, len(claimTable))
	for i, c := range claimTable {
		v := means[i].Latency
		if c.metric == powerRatio {
			v = means[i].Power
		}
		claims[i] = Claim{Name: c.name, Paper: c.paper, Measured: v}
	}
	return claims
}

// RenderSummary draws the claim table.
func RenderSummary(claims []Claim) string {
	t := stats.NewTable("claim", "paper", "measured", "delta (pp)")
	for _, c := range claims {
		t.AddRow(c.Name, fmt.Sprintf("%.2f", c.Paper),
			fmt.Sprintf("%.3f", c.Measured), fmt.Sprintf("%+.1f", c.Delta()))
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Ablations: the DESIGN.md-listed design-choice studies.
// ---------------------------------------------------------------------

// AblationHeuristics compares the two Figure 3 shortcut-selection
// heuristics by objective value (total pairwise shortest-path cost) on
// the 10x10 mesh; the paper found them comparable and kept the cheaper
// max-cost variant.
func AblationHeuristics(m *topology.Mesh, budget int) (permutation, maxCost int64) {
	g := m.Graph()
	p := shortcut.Params{Budget: budget, Eligible: m.ShortcutEligible}
	pg := shortcut.Apply(g, shortcut.SelectGreedyPermutation(g, p))
	mg := shortcut.Apply(g, shortcut.Static(m, budget))
	return pg.TotalPairCost(), mg.TotalPairCost()
}

// AblationRegion compares region-based application-specific selection
// (shortcut.SelectRegionBased) against pure pair-based selection on a
// hotspot workload, reporting the measured average latency of each.
func AblationRegion(m *topology.Mesh, opts Options) (region, pair float64) {
	opts = opts.WithDefaults()
	profile := traffic.NewProbabilistic(m, traffic.Hotspot1, opts.Rate, opts.Seed)
	freq := traffic.FrequencyMatrix(profile, m.N(), opts.ProfileCycles)
	rfSet := m.RFPlacement(50)
	rf := map[int]bool{}
	for _, id := range rfSet {
		rf[id] = true
	}
	eligible := func(id int) bool { return rf[id] && m.ShortcutEligible(id) }

	run := func(edges []shortcut.Edge) float64 {
		cfg := noc.Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges, RFEnabled: rfSet}
		gen := traffic.NewProbabilistic(m, traffic.Hotspot1, opts.Rate, opts.Seed)
		return Run(cfg, gen, opts).AvgLatency
	}
	regionEdges := shortcut.SelectRegionBased(m.Graph(), shortcut.Params{
		Budget: tech.ShortcutBudget, Eligible: eligible,
		Freq: freq, MeshW: m.W, MeshH: m.H,
	})
	pairEdges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget: tech.ShortcutBudget, Eligible: eligible,
		Freq: freq,
	})
	return run(regionEdges), run(pairEdges)
}

// AblationEscapeVC sweeps the escape-timeout parameter on a shortcut
// topology under load and reports latency per timeout.
func AblationEscapeVC(m *topology.Mesh, timeouts []int64, opts Options) map[int64]float64 {
	opts = opts.WithDefaults()
	pts := make([]Point, len(timeouts))
	for i, to := range timeouts {
		pts[i] = routerStudy(opts)
		pts[i].EscapeTimeout = to
	}
	res := newPlan(pts).run(m, opts)
	out := map[int64]float64{}
	for i, to := range timeouts {
		out[to] = res[pts[i]].AvgLatency
	}
	return out
}

// routerStudy is the VC and escape-VC ablations' point before the
// caller sets its router fields: the 4 B mesh with static shortcuts
// under 2Hotspot traffic.
func routerStudy(opts Options) Point {
	return Point{Design: Design{Kind: Static, Width: tech.Width4B}, Gen: genSpec(traffic.Hotspot2.String(), opts)}
}

// AblationShortcutWidth splits the fixed 256 B RF-I aggregate bandwidth
// into different shortcut widths (more, narrower shortcuts versus fewer,
// wider ones) on the 4 B mesh, and reports latency normalized to the 4 B
// baseline per width. Widths must be multiples of the 4 B flit size.
func AblationShortcutWidth(m *topology.Mesh, widths []int, opts Options) map[int]float64 {
	opts = opts.WithDefaults()
	g := genSpec(traffic.Uniform.String(), opts)
	pts := []Point{{Design: Design{Kind: Baseline, Width: tech.Width4B}, Gen: g}}
	for _, w := range widths {
		pts = append(pts, Point{Design: Design{Kind: Static, Width: tech.Width4B, ShortcutWidthBytes: w}, Gen: g})
	}
	res := newPlan(pts).run(m, opts)
	out := map[int]float64{}
	for i, w := range widths {
		out[w] = res[pts[i+1]].AvgLatency / res[pts[0]].AvgLatency
	}
	return out
}

// AblationVCConfig sweeps virtual-channel count and buffer depth on the
// 4 B mesh with static shortcuts under hotspot traffic, reporting average
// per-flit latency for each (vcsPerClass, bufDepth) point. The paper
// fixes 8 escape VCs; this shows how much router buffering the
// architecture actually needs.
func AblationVCConfig(m *topology.Mesh, vcs, depths []int, opts Options) map[[2]int]float64 {
	opts = opts.WithDefaults()
	var pts []Point
	for _, v := range vcs {
		for _, d := range depths {
			pt := routerStudy(opts)
			pt.VCsPerClass, pt.BufDepth = v, d
			pts = append(pts, pt)
		}
	}
	res := newPlan(pts).run(m, opts)
	out := map[[2]int]float64{}
	for _, pt := range pts {
		out[[2]int{pt.VCsPerClass, pt.BufDepth}] = res[pt].AvgLatency
	}
	return out
}

// RoutingRow is one permutation pattern of the routing study: per-flit
// latency under deterministic XY and minimal-adaptive routing on the
// 4 B baseline mesh, with each point's Drained flag. A point that did
// not drain averages only the flits that got out, so its latency
// understates the run's.
type RoutingRow struct {
	Pattern              string
	Deterministic        float64
	Adaptive             float64
	DeterministicDrained bool
	AdaptiveDrained      bool
}

// RoutingStudy compares the two routing functions over the permutation
// suite (the HPCA-2008 adaptive-routing question on workloads built to
// punish dimension order). The patterns only separate the routers under
// contention, so the sweep runs at a heavy fixed rate rather than the
// light default.
func RoutingStudy(m *topology.Mesh, opts Options) []RoutingRow {
	opts = opts.WithDefaults()
	const permRate = 0.03 // per-core sends per cycle: deep in the contended regime at 4 B
	perms := traffic.Permutations()
	var pts []Point // each pattern under XY, then under adaptive routing
	for _, p := range perms {
		for _, adaptive := range []bool{false, true} {
			pts = append(pts, Point{
				Design:          Design{Kind: Baseline, Width: tech.Width4B},
				Gen:             GenSpec{Workload: p.String(), Rate: permRate, Seed: opts.Seed},
				AdaptiveRouting: adaptive,
			})
		}
	}
	res := newPlan(pts).run(m, opts)
	out := make([]RoutingRow, len(perms))
	for i, p := range perms {
		xy, ad := res[pts[2*i]], res[pts[2*i+1]]
		out[i] = RoutingRow{p.String(), xy.AvgLatency, ad.AvgLatency, xy.Drained, ad.Drained}
	}
	return out
}

// RenderRoutingStudy draws the comparison. A latency from a point that
// did not drain is marked, and its row prints no gain.
func RenderRoutingStudy(rows []RoutingRow) string {
	t := stats.NewTable("pattern", "XY latency/flit", "adaptive latency/flit", "gain")
	cell := func(lat float64, drained bool) string {
		if !drained {
			return fmt.Sprintf("%.1f (not drained)", lat)
		}
		return fmt.Sprintf("%.1f", lat)
	}
	for _, r := range rows {
		gain := "-"
		if r.DeterministicDrained && r.AdaptiveDrained {
			gain = fmt.Sprintf("%.2fx", r.Deterministic/r.Adaptive)
		}
		t.AddRow(r.Pattern, cell(r.Deterministic, r.DeterministicDrained),
			cell(r.Adaptive, r.AdaptiveDrained), gain)
	}
	return t.String()
}
