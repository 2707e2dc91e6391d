package experiments

import (
	"fmt"
	"strings"

	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// NormPoint is one design point on one workload, normalized to that
// workload's 16 B baseline: Latency < 1 is faster, Power < 1 is cheaper.
type NormPoint struct {
	Latency float64
	Power   float64
}

// ---------------------------------------------------------------------
// Figure 1: traffic by manhattan distance for the application traces.
// ---------------------------------------------------------------------

// Fig1Result holds per-application hop-distance histograms collected on
// the 16 B baseline mesh.
type Fig1Result struct {
	Apps       []string
	Histograms [][]int64
}

// Fig1 reproduces the paper's Figure 1 for all five application traces
// (the paper plots x264 and bodytrack).
func Fig1(m *topology.Mesh, opts Options) Fig1Result {
	opts = opts.WithDefaults()
	var out Fig1Result
	var pts []Point
	for _, app := range traffic.Apps() {
		out.Apps = append(out.Apps, app.String())
		pts = append(pts, Point{Design: Design{Kind: Baseline, Width: tech.Width16B}, Gen: genSpec(app.String(), opts)})
	}
	res := newPlan(pts).run(m, opts)
	for _, pt := range pts {
		out.Histograms = append(out.Histograms, res[pt].Stats.MsgsByDistance)
	}
	return out
}

// Render draws the histograms as ASCII bar charts.
func (r Fig1Result) Render() string {
	var b strings.Builder
	for i, app := range r.Apps {
		fmt.Fprintf(&b, "%s traffic by manhattan distance:\n", app)
		labels := make([]string, 0, len(r.Histograms[i])-1)
		counts := make([]int64, 0, len(r.Histograms[i])-1)
		for d := 1; d < len(r.Histograms[i]); d++ {
			labels = append(labels, fmt.Sprintf("%2d", d))
			counts = append(counts, r.Histograms[i][d])
		}
		b.WriteString(stats.Histogram(labels, counts, 50))
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 7: static vs adaptive-50 vs adaptive-25 on the 16 B mesh.
// ---------------------------------------------------------------------

// Fig7Result maps trace x design to normalized latency and power.
type Fig7Result struct {
	Traces  []string
	Designs []string
	// Points[d][t] is design d on trace t.
	Points [][]NormPoint
}

// Fig7Designs are the paper's three Figure 7 configurations.
func Fig7Designs() []Design {
	return []Design{
		{Kind: Static, Width: tech.Width16B},
		{Kind: Adaptive, RFRouters: 50, Width: tech.Width16B},
		{Kind: Adaptive, RFRouters: 25, Width: tech.Width16B},
	}
}

// Fig7 reproduces the RF-enabled-router trade-off study.
func Fig7(m *topology.Mesh, opts Options) Fig7Result {
	return compareDesigns(m, Fig7Designs(), opts)
}

// compareDesigns runs each design over all seven probabilistic traces
// and normalizes it against the per-trace 16 B baseline.
func compareDesigns(m *topology.Mesh, designs []Design, opts Options) Fig7Result {
	out := Fig7Result{Traces: traceNames(), Designs: make([]string, len(designs))}
	ss := make([]series, len(designs))
	for di, d := range designs {
		out.Designs[di] = d.Name()
		ss[di] = series{design: d}
	}
	out.Points = normalize(m, ss, opts, relative)
	return out
}

// Means returns the geometric-mean normalized latency and power of each
// design across traces.
func (r Fig7Result) Means() []NormPoint { return geoMeans(r.Points) }

// Render draws the trace x design matrix.
func (r Fig7Result) Render() string { return renderMatrix(r.Traces, r.Designs, r.Points) }

// renderMatrix draws a trace x column matrix of normalized points,
// points[column][trace], with a geometric-mean row.
func renderMatrix(traces, columns []string, points [][]NormPoint) string {
	header := []string{"trace"}
	for _, c := range columns {
		header = append(header, c+" lat", c+" pow")
	}
	t := stats.NewTable(header...)
	cells := func(row []string, p NormPoint) []string {
		return append(row, fmt.Sprintf("%.3f", p.Latency), fmt.Sprintf("%.3f", p.Power))
	}
	for ti, tr := range traces {
		row := []string{tr}
		for ci := range columns {
			row = cells(row, points[ci][ti])
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, mp := range geoMeans(points) {
		row = cells(row, mp)
	}
	t.AddRow(row...)
	return t.String()
}

// ---------------------------------------------------------------------
// Figure 8: mesh bandwidth reduction (16/8/4 B) x (baseline/static/
// adaptive).
// ---------------------------------------------------------------------

// Fig8Designs are the paper's Figure 8 design points in presentation
// order: for each width, baseline, static, adaptive-50.
func Fig8Designs() []Design {
	var out []Design
	for _, w := range tech.Widths() {
		out = append(out,
			Design{Kind: Baseline, Width: w},
			Design{Kind: Static, Width: w},
			Design{Kind: Adaptive, RFRouters: 50, Width: w},
		)
	}
	return out
}

// Fig8 reproduces the bandwidth-reduction study.
func Fig8(m *topology.Mesh, opts Options) Fig7Result {
	return compareDesigns(m, Fig8Designs(), opts)
}

// ---------------------------------------------------------------------
// Table 2: area of network designs.
// ---------------------------------------------------------------------

// Table2Row is one row of the paper's Table 2, in mm^2.
type Table2Row struct {
	Design string
	Router float64
	Link   float64
	RFI    float64
	Total  float64
}

// Table2 reproduces the area table analytically (no simulation needed).
func Table2(m *topology.Mesh) []Table2Row {
	var rows []Table2Row
	add := func(name string, cfg noc.Config) {
		a := power.ComputeArea(noc.New(cfg).Config())
		rows = append(rows, Table2Row{
			Design: name, Router: a.Router, Link: a.Link, RFI: a.RFI, Total: a.Total(),
		})
	}
	for _, w := range tech.Widths() {
		add(fmt.Sprintf("Mesh Baseline (%s)", w), noc.Config{Mesh: m, Width: w})
	}
	for _, w := range tech.Widths() {
		add(fmt.Sprintf("Mesh (%s) Arch-Specific", w),
			noc.Config{Mesh: m, Width: w, Shortcuts: StaticShortcuts(m, tech.ShortcutBudget)})
		add(fmt.Sprintf("Mesh (%s) + 50 RF-I APs", w),
			noc.Config{Mesh: m, Width: w, RFEnabled: m.RFPlacement(50)})
	}
	return rows
}

// RenderTable2 draws the table.
func RenderTable2(rows []Table2Row) string {
	t := stats.NewTable("Design", "Router Area", "Link Area", "RF-I Area", "Total")
	for _, r := range rows {
		t.AddRow(r.Design,
			fmt.Sprintf("%.2f", r.Router), fmt.Sprintf("%.2f", r.Link),
			fmt.Sprintf("%.2f", r.RFI), fmt.Sprintf("%.2f", r.Total))
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Figure 9: multicast (VCT vs RF-MC vs MC+SC at 20%/50% locality).
// ---------------------------------------------------------------------

// Fig9Result maps trace x (design, locality) to normalized points.
type Fig9Result struct {
	Traces  []string
	Configs []string
	Points  [][]NormPoint // [config][trace]
}

type fig9Config struct {
	name string
	series
}

func fig9Configs() []fig9Config {
	var out []fig9Config
	for _, loc := range []int{20, 50} {
		out = append(out,
			fig9Config{fmt.Sprintf("VCT-%d", loc), series{
				Design{Kind: Baseline, Width: tech.Width16B, Multicast: noc.MulticastVCT}, loc}},
			fig9Config{fmt.Sprintf("MC-%d", loc), series{
				Design{Kind: Baseline, Width: tech.Width16B, Multicast: noc.MulticastRF, RFRouters: 50}, loc}},
			fig9Config{fmt.Sprintf("MC+SC-%d", loc), series{
				Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width16B, Multicast: noc.MulticastRF}, loc}},
		)
	}
	return out
}

// fig9 is the Figure 9 configuration with the given name.
func fig9(name string) series {
	for _, c := range fig9Configs() {
		if c.name == name {
			return c.series
		}
	}
	panic("experiments: no Figure 9 configuration " + name)
}

// Fig9 reproduces the multicast study: each configuration is normalized
// to the 16 B baseline mesh delivering the same multicasts as unicast
// expansions.
func Fig9(m *topology.Mesh, opts Options) Fig9Result {
	cfgs := fig9Configs()
	out := Fig9Result{Traces: traceNames(), Configs: make([]string, len(cfgs))}
	ss := make([]series, len(cfgs))
	for ci, c := range cfgs {
		out.Configs[ci] = c.name
		ss[ci] = c.series
	}
	out.Points = normalize(m, ss, opts, relative)
	return out
}

// Means returns geometric means across traces per configuration.
func (r Fig9Result) Means() []NormPoint { return geoMeans(r.Points) }

// Render draws the matrix.
func (r Fig9Result) Render() string { return renderMatrix(r.Traces, r.Configs, r.Points) }

// ---------------------------------------------------------------------
// The one runner behind every figure that simulates Designs on the mesh:
// a plan of distinct (design, workload) points, run in one pass. Figures
// 7, 8, 9 and 10 and the Summary list series, design columns over the
// seven probabilistic traces normalized to a baseline series; Figure 1,
// the application study, the load curves, the width, VC and escape-VC
// ablations and the routing study list their points directly.
// ---------------------------------------------------------------------

// series is one figure column: a design over the probabilistic traces,
// multicast-augmented at locality percent when locality > 0.
type series struct {
	design   Design
	locality int
}

// baseline is the series s is normalized to: the 16 B baseline mesh on
// the same traces, delivering any multicasts as unicast expansions.
func (s series) baseline() series {
	b := series{Design{Kind: Baseline, Width: tech.Width16B}, s.locality}
	if s.locality > 0 {
		b.design.Multicast = noc.MulticastExpand
	}
	return b
}

// at is the series' point on trace pat.
func (s series) at(pat traffic.Pattern, opts Options) Point {
	g := genSpec(pat.String(), opts)
	if s.locality > 0 {
		g.Multicast, g.MulticastRate, g.MulticastLocality = true, opts.MulticastRate, s.locality
	}
	return Point{Design: s.design, Gen: g}
}

// genSpec is the named workload at opts' rate and seed.
func genSpec(workload string, opts Options) GenSpec {
	return GenSpec{Workload: workload, Rate: opts.Rate, Seed: opts.Seed}
}

// plan is a set of distinct points in first-use order.
type plan []Point

func newPlan(pts []Point) plan {
	var p plan
	seen := map[Point]bool{}
	for _, pt := range pts {
		if !seen[pt] {
			seen[pt] = true
			p = append(p, pt)
		}
	}
	return p
}

// run simulates every point of the plan in one pass over the worker
// pool, opts (defaults applied) setting the run length. Points build
// through BuildSpec, so the adaptive points of one workload share its
// memoized profile. Each Result carries its design's name.
func (p plan) run(m *topology.Mesh, opts Options) map[Point]Result {
	results := make([]Result, len(p))
	forEach(Workers, len(p), func(i int) {
		cfg, err := BuildSpec(m, p[i], opts.ProfileCycles)
		if err != nil {
			panic(err)
		}
		results[i] = Run(cfg, p[i].Gen.mustBuild(m), opts)
		results[i].Design = p[i].Design.Name()
	})
	out := make(map[Point]Result, len(p))
	for i, pt := range p {
		out[pt] = results[i]
	}
	return out
}

// seriesPoints lists what ss reads: each series' baseline and the
// series itself on every trace.
func seriesPoints(ss []series, opts Options) []Point {
	var pts []Point
	for _, s := range ss {
		for _, read := range []series{s.baseline(), s} {
			for _, pat := range traffic.Patterns() {
				pts = append(pts, read.at(pat, opts))
			}
		}
	}
	return pts
}

// normalize runs the plan of ss and returns, per series, each trace's
// point against the series' baseline on that trace as ratio(point,
// baseline).
func normalize(m *topology.Mesh, ss []series, opts Options, ratio func(r, base Result) NormPoint) [][]NormPoint {
	opts = opts.WithDefaults()
	res := newPlan(seriesPoints(ss, opts)).run(m, opts)
	pats := traffic.Patterns()
	out := make([][]NormPoint, len(ss))
	for si, s := range ss {
		out[si] = make([]NormPoint, len(pats))
		for ti, pat := range pats {
			out[si][ti] = ratio(res[s.at(pat, opts)], res[s.baseline().at(pat, opts)])
		}
	}
	return out
}

// relative is a point's latency and power as fractions of its
// baseline's.
func relative(r, base Result) NormPoint {
	return NormPoint{Latency: r.AvgLatency / base.AvgLatency, Power: r.PowerW / base.PowerW}
}

// geoMeans returns the geometric-mean latency and power of each series
// across traces, in trace order.
func geoMeans(points [][]NormPoint) []NormPoint {
	out := make([]NormPoint, len(points))
	for i, ps := range points {
		lat := make([]float64, len(ps))
		pow := make([]float64, len(ps))
		for ti, p := range ps {
			lat[ti] = p.Latency
			pow[ti] = p.Power
		}
		out[i] = NormPoint{Latency: stats.GeoMeanRatios(lat), Power: stats.GeoMeanRatios(pow)}
	}
	return out
}

// traceNames names the probabilistic traces in figure order.
func traceNames() []string {
	var out []string
	for _, pat := range traffic.Patterns() {
		out = append(out, pat.String())
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 10: unified power-performance comparison.
// ---------------------------------------------------------------------

// Fig10Line is one architecture traced across the three link widths;
// points are geometric means over the probabilistic traces, normalized to
// the 16 B baseline. Performance is reported the way the paper plots it:
// normalized performance = baseline latency / design latency (higher is
// better), while power stays a ratio (lower is better).
type Fig10Line struct {
	Name   string
	Widths []string
	Perf   []float64
	Power  []float64
}

// fig10Arch is one Figure 10 architecture: its name and its design,
// whose Width each point of the line sets.
type fig10Arch struct {
	name   string
	design Design
}

// fig10aArchs are Figure 10a's unicast architectures: baseline, wire
// shortcuts, static RF shortcuts, adaptive RF shortcuts.
var fig10aArchs = []fig10Arch{
	{"Mesh Baseline", Design{Kind: Baseline}},
	{"Mesh Wire Shortcuts", Design{Kind: WireStatic}},
	{"Mesh Static Shortcuts", Design{Kind: Static}},
	{"Mesh Adaptive Shortcuts", Design{Kind: Adaptive, RFRouters: 50}},
}

// fig10bArchs are Figure 10b's multicast architectures: baseline
// (unicast expansion), RF multicast alone, adaptive shortcuts with
// expansion, and adaptive shortcuts plus RF multicast.
var fig10bArchs = []fig10Arch{
	{"Mesh Baseline", Design{Kind: Baseline, Multicast: noc.MulticastExpand}},
	{"RF Multicast", Design{Kind: Baseline, Multicast: noc.MulticastRF, RFRouters: 50}},
	{"Adaptive Shortcuts", Design{Kind: Adaptive, RFRouters: 50, Multicast: noc.MulticastExpand}},
	{"Adaptive Shortcuts + RF Multicast", Design{Kind: Adaptive, RFRouters: 50, Multicast: noc.MulticastRF}},
}

// Fig10a compares the unicast architectures.
func Fig10a(m *topology.Mesh, opts Options) []Fig10Line {
	return fig10(m, 0, fig10aArchs, opts)
}

// Fig10b compares the multicast architectures on the locality-20%
// multicast workloads.
func Fig10b(m *topology.Mesh, opts Options) []Fig10Line {
	return fig10(m, 20, fig10bArchs, opts)
}

// fig10Series lists each architecture at each width, in line order, on
// traces multicast-augmented at locality percent when locality > 0.
func fig10Series(locality int, archs []fig10Arch) []series {
	var ss []series
	for _, a := range archs {
		for _, w := range tech.Widths() {
			d := a.design
			d.Width = w
			ss = append(ss, series{d, locality})
		}
	}
	return ss
}

// fig10 traces each architecture across the link widths in one plan.
func fig10(m *topology.Mesh, locality int, archs []fig10Arch, opts Options) []Fig10Line {
	means := geoMeans(normalize(m, fig10Series(locality, archs), opts, speedup))
	widths := tech.Widths()
	var out []Fig10Line
	for ai, a := range archs {
		line := Fig10Line{Name: a.name}
		for wi, w := range widths {
			mp := means[ai*len(widths)+wi]
			line.Widths = append(line.Widths, w.String())
			line.Perf = append(line.Perf, mp.Latency)
			line.Power = append(line.Power, mp.Power)
		}
		out = append(out, line)
	}
	return out
}

// speedup is relative with latency inverted into Figure 10's normalized
// performance: the Latency field holds baseline latency / point latency.
func speedup(r, base Result) NormPoint {
	return NormPoint{Latency: base.AvgLatency / r.AvgLatency, Power: r.PowerW / base.PowerW}
}

// RenderFig10 draws the power-performance lines.
func RenderFig10(lines []Fig10Line) string {
	t := stats.NewTable("architecture", "width", "norm perf", "norm power")
	for _, l := range lines {
		for i := range l.Widths {
			t.AddRow(l.Name, l.Widths[i],
				fmt.Sprintf("%.3f", l.Perf[i]), fmt.Sprintf("%.3f", l.Power[i]))
		}
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Application traces: adaptive 4 B versus the 16 B baseline (Section
// 5.1.2's application results).
// ---------------------------------------------------------------------

// AppResult is one application's comparison.
type AppResult struct {
	App      string
	Latency  float64 // adaptive-4B / baseline-16B
	Power    float64
	Baseline Result
	Adaptive Result
}

// AppStudy runs all five applications on the 16 B baseline and the
// adaptive 4 B design, in one plan.
func AppStudy(m *topology.Mesh, opts Options) []AppResult {
	opts = opts.WithDefaults()
	apps := traffic.Apps()
	var pts []Point // each app's baseline, then its adaptive point
	for _, app := range apps {
		g := genSpec(app.String(), opts)
		pts = append(pts,
			Point{Design: Design{Kind: Baseline, Width: tech.Width16B}, Gen: g},
			Point{Design: Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width4B}, Gen: g})
	}
	res := newPlan(pts).run(m, opts)
	out := make([]AppResult, len(apps))
	for i, app := range apps {
		base, ad := res[pts[2*i]], res[pts[2*i+1]]
		out[i] = AppResult{
			App:      app.String(),
			Latency:  ad.AvgLatency / base.AvgLatency,
			Power:    ad.PowerW / base.PowerW,
			Baseline: base,
			Adaptive: ad,
		}
	}
	return out
}

// RenderAppStudy draws the application comparison. When the runs
// carried latency histograms (Options.Histograms), each row also shows
// the adaptive design's packet-latency tail (p50/p99/max in cycles)
// rather than means alone.
func RenderAppStudy(rs []AppResult) string {
	withDist := len(rs) > 0 && rs[0].Adaptive.PacketLatencyDist.Count > 0
	header := []string{"application", "norm latency", "norm power", "power saving"}
	if withDist {
		header = append(header, "p50", "p99", "max")
	}
	t := stats.NewTable(header...)
	var lat, pow []float64
	for _, r := range rs {
		row := []string{r.App, fmt.Sprintf("%.3f", r.Latency),
			fmt.Sprintf("%.3f", r.Power), stats.Pct(r.Power)}
		if withDist {
			d := r.Adaptive.PacketLatencyDist
			row = append(row, fmt.Sprintf("%d", d.P50), fmt.Sprintf("%d", d.P99),
				fmt.Sprintf("%d", d.Max))
		}
		t.AddRow(row...)
		lat = append(lat, r.Latency)
		pow = append(pow, r.Power)
	}
	t.AddRow("geomean", fmt.Sprintf("%.3f", stats.GeoMeanRatios(lat)),
		fmt.Sprintf("%.3f", stats.GeoMeanRatios(pow)), stats.Pct(stats.GeoMeanRatios(pow)))
	return t.String()
}
