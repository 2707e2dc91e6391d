package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"

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
	apps := traffic.Apps()
	out := Fig1Result{
		Apps:       make([]string, len(apps)),
		Histograms: make([][]int64, len(apps)),
	}
	forEach(len(apps), func(i int) {
		r := RunDesignApp(m, Design{Kind: Baseline, Width: tech.Width16B}, apps[i], opts)
		out.Apps[i] = apps[i].String()
		out.Histograms[i] = r.Stats.MsgsByDistance
	})
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
	out.Points = normalize(m, ss, opts)
	return out
}

// Means returns the geometric-mean normalized latency and power of each
// design across traces.
func (r Fig7Result) Means() []NormPoint { return geoMeans(r.Points) }

// Render draws the trace x design matrix.
func (r Fig7Result) Render() string {
	header := []string{"trace"}
	for _, d := range r.Designs {
		header = append(header, d+" lat", d+" pow")
	}
	t := stats.NewTable(header...)
	for ti, tr := range r.Traces {
		row := []string{tr}
		for di := range r.Designs {
			p := r.Points[di][ti]
			row = append(row, fmt.Sprintf("%.3f", p.Latency), fmt.Sprintf("%.3f", p.Power))
		}
		t.AddRow(row...)
	}
	means := r.Means()
	row := []string{"geomean"}
	for _, mp := range means {
		row = append(row, fmt.Sprintf("%.3f", mp.Latency), fmt.Sprintf("%.3f", mp.Power))
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
	out.Points = normalize(m, ss, opts)
	return out
}

// Means returns geometric means across traces per configuration.
func (r Fig9Result) Means() []NormPoint { return geoMeans(r.Points) }

// Render draws the matrix.
func (r Fig9Result) Render() string {
	header := []string{"trace"}
	for _, c := range r.Configs {
		header = append(header, c+" lat", c+" pow")
	}
	t := stats.NewTable(header...)
	for ti, tr := range r.Traces {
		row := []string{tr}
		for ci := range r.Configs {
			p := r.Points[ci][ti]
			row = append(row, fmt.Sprintf("%.3f", p.Latency), fmt.Sprintf("%.3f", p.Power))
		}
		t.AddRow(row...)
	}
	means := r.Means()
	row := []string{"geomean"}
	for _, mp := range means {
		row = append(row, fmt.Sprintf("%.3f", mp.Latency), fmt.Sprintf("%.3f", mp.Power))
	}
	t.AddRow(row...)
	return t.String()
}

// ---------------------------------------------------------------------
// The runner behind Figures 7, 8 and 9 and the Summary: series of design
// points over the seven probabilistic traces, each normalized to a
// baseline series.
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

// point is one simulation: a series on one trace.
type point struct {
	series
	pattern traffic.Pattern
}

// generator is a fresh instance of the point's workload.
func (p point) generator(m *topology.Mesh, opts Options) traffic.Generator {
	gen := traffic.Generator(traffic.NewProbabilistic(m, p.pattern, opts.Rate, opts.Seed))
	if p.locality > 0 {
		gen = traffic.NewMulticastAugment(m, gen, opts.MulticastRate, p.locality, opts.Seed)
	}
	return gen
}

// plan is the distinct simulations a set of series reads: each series
// and its baseline on every trace, each point once, in first-use order.
// Profiles lists the traces an adaptive point runs on; each is profiled
// once per run. A multicast-augmented trace shares the plain trace's
// profile: the augmentation draws from its own RNG and the profile drops
// multicasts, so both give the same frequency matrix.
type plan struct {
	points   []point
	profiles []traffic.Pattern
}

func newPlan(ss []series) plan {
	var p plan
	seen := map[point]bool{}
	for _, s := range ss {
		for _, read := range []series{s.baseline(), s} {
			for _, pat := range traffic.Patterns() {
				pt := point{read, pat}
				if seen[pt] {
					continue
				}
				seen[pt] = true
				p.points = append(p.points, pt)
				if read.design.Kind == Adaptive && !slices.Contains(p.profiles, pat) {
					p.profiles = append(p.profiles, pat)
				}
			}
		}
	}
	return p
}

// run simulates every point of the plan in one pass over the worker
// pool. A trace's frequency matrix is collected by the first adaptive
// point that needs it and dropped when run returns.
func (p plan) run(m *topology.Mesh, opts Options) map[point]Result {
	type profile struct {
		once sync.Once
		freq [][]int64
	}
	profiles := map[traffic.Pattern]*profile{}
	for _, pat := range p.profiles {
		profiles[pat] = &profile{}
	}
	results := make([]Result, len(p.points))
	forEach(len(p.points), func(i int) {
		pt := p.points[i]
		var freq [][]int64
		if pt.design.Kind == Adaptive {
			pr := profiles[pt.pattern]
			pr.once.Do(func() {
				gen := traffic.NewProbabilistic(m, pt.pattern, opts.Rate, opts.Seed)
				pr.freq = traffic.FrequencyMatrix(gen, m.N(), opts.ProfileCycles)
			})
			freq = pr.freq
		}
		results[i] = Run(build(m, pt.design, freq), pt.generator(m, opts), opts)
	})
	out := make(map[point]Result, len(p.points))
	for i, pt := range p.points {
		out[pt] = results[i]
	}
	return out
}

// normalize runs the plan of ss and returns, per series, each trace's
// point normalized to the series' baseline on that trace.
func normalize(m *topology.Mesh, ss []series, opts Options) [][]NormPoint {
	opts = opts.WithDefaults()
	res := newPlan(ss).run(m, opts)
	pats := traffic.Patterns()
	out := make([][]NormPoint, len(ss))
	for si, s := range ss {
		out[si] = make([]NormPoint, len(pats))
		for ti, pat := range pats {
			r, b := res[point{s, pat}], res[point{s.baseline(), pat}]
			out[si][ti] = NormPoint{
				Latency: r.AvgLatency / b.AvgLatency,
				Power:   r.PowerW / b.PowerW,
			}
		}
	}
	return out
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

// Fig10a compares the unicast architectures: baseline, wire shortcuts,
// static RF shortcuts, adaptive RF shortcuts.
func Fig10a(m *topology.Mesh, opts Options) []Fig10Line {
	opts = opts.WithDefaults()
	archs := []struct {
		name string
		mk   func(w tech.LinkWidth) Design
	}{
		{"Mesh Baseline", func(w tech.LinkWidth) Design { return Design{Kind: Baseline, Width: w} }},
		{"Mesh Wire Shortcuts", func(w tech.LinkWidth) Design { return Design{Kind: WireStatic, Width: w} }},
		{"Mesh Static Shortcuts", func(w tech.LinkWidth) Design { return Design{Kind: Static, Width: w} }},
		{"Mesh Adaptive Shortcuts", func(w tech.LinkWidth) Design { return Design{Kind: Adaptive, RFRouters: 50, Width: w} }},
	}
	pats := traffic.Patterns()
	widths := tech.Widths()
	base := make([]Result, len(pats))
	forEach(len(pats), func(ti int) {
		base[ti] = RunDesign(m, Design{Kind: Baseline, Width: tech.Width16B}, pats[ti], opts)
	})
	// raw[a][w][t]
	raw := make([][][]Result, len(archs))
	for ai := range raw {
		raw[ai] = make([][]Result, len(widths))
		for wi := range raw[ai] {
			raw[ai][wi] = make([]Result, len(pats))
		}
	}
	forEach(len(archs)*len(widths)*len(pats), func(k int) {
		ai := k / (len(widths) * len(pats))
		wi := (k / len(pats)) % len(widths)
		ti := k % len(pats)
		raw[ai][wi][ti] = RunDesign(m, archs[ai].mk(widths[wi]), pats[ti], opts)
	})
	var out []Fig10Line
	for ai, a := range archs {
		line := Fig10Line{Name: a.name}
		for wi, w := range widths {
			var perf, pow []float64
			for ti := range pats {
				r := raw[ai][wi][ti]
				perf = append(perf, base[ti].AvgLatency/r.AvgLatency)
				pow = append(pow, r.PowerW/base[ti].PowerW)
			}
			line.Widths = append(line.Widths, w.String())
			line.Perf = append(line.Perf, stats.GeoMeanRatios(perf))
			line.Power = append(line.Power, stats.GeoMeanRatios(pow))
		}
		out = append(out, line)
	}
	return out
}

// Fig10b compares the multicast architectures: baseline (unicast
// expansion), RF multicast alone, adaptive shortcuts with expansion, and
// adaptive shortcuts plus RF multicast. Locality 20% workloads.
func Fig10b(m *topology.Mesh, opts Options) []Fig10Line {
	opts = opts.WithDefaults()
	const loc = 20
	archs := []struct {
		name string
		mk   func(w tech.LinkWidth) Design
	}{
		{"Mesh Baseline", func(w tech.LinkWidth) Design {
			return Design{Kind: Baseline, Width: w, Multicast: noc.MulticastExpand}
		}},
		{"RF Multicast", func(w tech.LinkWidth) Design {
			return Design{Kind: Baseline, Width: w, Multicast: noc.MulticastRF, RFRouters: 50}
		}},
		{"Adaptive Shortcuts", func(w tech.LinkWidth) Design {
			return Design{Kind: Adaptive, RFRouters: 50, Width: w, Multicast: noc.MulticastExpand}
		}},
		{"Adaptive Shortcuts + RF Multicast", func(w tech.LinkWidth) Design {
			return Design{Kind: Adaptive, RFRouters: 50, Width: w, Multicast: noc.MulticastRF}
		}},
	}
	pats := traffic.Patterns()
	widths := tech.Widths()
	base := make([]Result, len(pats))
	forEach(len(pats), func(ti int) {
		base[ti] = RunDesignMulticast(m,
			Design{Kind: Baseline, Width: tech.Width16B, Multicast: noc.MulticastExpand},
			pats[ti], loc, opts)
	})
	raw := make([][][]Result, len(archs))
	for ai := range raw {
		raw[ai] = make([][]Result, len(widths))
		for wi := range raw[ai] {
			raw[ai][wi] = make([]Result, len(pats))
		}
	}
	forEach(len(archs)*len(widths)*len(pats), func(k int) {
		ai := k / (len(widths) * len(pats))
		wi := (k / len(pats)) % len(widths)
		ti := k % len(pats)
		raw[ai][wi][ti] = RunDesignMulticast(m, archs[ai].mk(widths[wi]), pats[ti], loc, opts)
	})
	var out []Fig10Line
	for ai, a := range archs {
		line := Fig10Line{Name: a.name}
		for wi, w := range widths {
			var perf, pow []float64
			for ti := range pats {
				r := raw[ai][wi][ti]
				perf = append(perf, base[ti].AvgLatency/r.AvgLatency)
				pow = append(pow, r.PowerW/base[ti].PowerW)
			}
			line.Widths = append(line.Widths, w.String())
			line.Perf = append(line.Perf, stats.GeoMeanRatios(perf))
			line.Power = append(line.Power, stats.GeoMeanRatios(pow))
		}
		out = append(out, line)
	}
	return out
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
// adaptive 4 B design, in parallel.
func AppStudy(m *topology.Mesh, opts Options) []AppResult {
	opts = opts.WithDefaults()
	apps := traffic.Apps()
	out := make([]AppResult, len(apps))
	forEach(len(apps), func(i int) {
		app := apps[i]
		base := RunDesignApp(m, Design{Kind: Baseline, Width: tech.Width16B}, app, opts)
		ad := RunDesignApp(m, Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width4B}, app, opts)
		out[i] = AppResult{
			App:      app.String(),
			Latency:  ad.AvgLatency / base.AvgLatency,
			Power:    ad.PowerW / base.PowerW,
			Baseline: base,
			Adaptive: ad,
		}
	})
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
