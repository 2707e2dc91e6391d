// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md and microbenchmarks of the simulator core.
//
// Each figure benchmark runs the full experiment at a reduced cycle
// budget per iteration (the shapes stabilize well below the paper's 1M
// cycles); cmd/experiments regenerates the same artifacts at full
// length. Run with:
//
//	go test -bench=. -benchmem
package rfnoc_test

import (
	"testing"

	rfnoc "repro"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// benchOpts trims the per-iteration simulation length.
func benchOpts() rfnoc.Options {
	return rfnoc.Options{Cycles: 4000, DrainCycles: 200000, Seed: 1, ProfileCycles: 5000}
}

// ---------------------------------------------------------------------
// One benchmark per paper artifact.
// ---------------------------------------------------------------------

// BenchmarkFig1TrafficHistograms regenerates Figure 1 (traffic by
// manhattan distance for the application traces).
func BenchmarkFig1TrafficHistograms(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		r := rfnoc.Figure1(m, benchOpts())
		if len(r.Apps) != 5 {
			b.Fatal("missing application histograms")
		}
	}
}

// BenchmarkFig7RFEnabledRouters regenerates Figure 7 (static vs
// adaptive-50 vs adaptive-25 on the 16B mesh).
func BenchmarkFig7RFEnabledRouters(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		r := rfnoc.Figure7(m, benchOpts())
		means := r.Means()
		if len(means) != 3 {
			b.Fatal("want 3 designs")
		}
		// Shape assertions from the paper: adaptive-50 is the fastest,
		// and every overlay costs power at 16B.
		if means[1].Latency >= 1 || means[1].Power <= 1 {
			b.Fatalf("adaptive-50 shape wrong: %+v", means[1])
		}
	}
}

// BenchmarkFig8BandwidthReduction regenerates Figure 8 (16/8/4B x
// baseline/static/adaptive).
func BenchmarkFig8BandwidthReduction(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		r := rfnoc.Figure8(m, benchOpts())
		if len(r.Designs) != 9 {
			b.Fatal("want 9 design points")
		}
	}
}

// summaryBenchSeed numbers BenchmarkSummary's runs. It never repeats,
// across b.N rounds and -count runs alike, so every Summary profiles
// fresh traces and misses the content-keyed selection memo for its
// adaptive sets, as the first Summary of a process does. The static set
// depends on no seed, so it is selected once per process, as in any
// run of several Summaries.
var summaryBenchSeed int64

// BenchmarkSummary regenerates the 18 headline claims at 5k cycles, the
// shortest run that keeps every claim within 1.3 pp of its 20k-cycle
// value.
func BenchmarkSummary(b *testing.B) {
	m := rfnoc.NewMesh()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		summaryBenchSeed++
		claims := rfnoc.HeadlineClaims(m, rfnoc.Options{Cycles: 5000, Seed: summaryBenchSeed})
		if len(claims) != 18 {
			b.Fatalf("want 18 claims, got %d", len(claims))
		}
	}
}

// BenchmarkTable2Area regenerates Table 2 (area of the nine designs).
func BenchmarkTable2Area(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		rows := rfnoc.Table2Area(m)
		if len(rows) != 9 {
			b.Fatal("want 9 rows")
		}
	}
}

// BenchmarkFig9Multicast regenerates Figure 9 (VCT vs MC vs MC+SC at
// 20%/50% destination-set locality).
func BenchmarkFig9Multicast(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		r := rfnoc.Figure9(m, benchOpts())
		if len(r.Configs) != 6 {
			b.Fatal("want 6 multicast configs")
		}
	}
}

// BenchmarkFig10aUnicast regenerates Figure 10a (unified unicast
// power-performance lines).
func BenchmarkFig10aUnicast(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		lines := rfnoc.Figure10a(m, benchOpts())
		if len(lines) != 4 {
			b.Fatal("want 4 architectures")
		}
	}
}

// BenchmarkFig10bMulticast regenerates Figure 10b (unified multicast
// power-performance lines).
func BenchmarkFig10bMulticast(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		lines := rfnoc.Figure10b(m, benchOpts())
		if len(lines) != 4 {
			b.Fatal("want 4 architectures")
		}
	}
}

// BenchmarkAppStudy regenerates the Section 5.1.2 application-trace
// comparison (adaptive 4B vs 16B baseline).
func BenchmarkAppStudy(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		rs := rfnoc.ApplicationStudy(m, benchOpts())
		if len(rs) != 5 {
			b.Fatal("want 5 applications")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md design choices).
// ---------------------------------------------------------------------

// BenchmarkAblationHeuristicPermutation times the Figure 3(a)
// permutation-graph heuristic on the full mesh.
func BenchmarkAblationHeuristicPermutation(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		perm, maxc := experiments.AblationHeuristics(m, tech.ShortcutBudget)
		// The paper found the two heuristics comparable; hold them to
		// within 10% of each other on the objective.
		if float64(maxc) > 1.10*float64(perm) {
			b.Fatalf("heuristics diverged: perm=%d maxcost=%d", perm, maxc)
		}
	}
}

// BenchmarkAblationRegionSelection compares region-based vs pair-based
// application-specific selection on a hotspot workload.
func BenchmarkAblationRegionSelection(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		region, pair := experiments.AblationRegion(m, benchOpts())
		if region <= 0 || pair <= 0 {
			b.Fatal("ablation produced no latencies")
		}
	}
}

// BenchmarkAblationEscapeVCTimeout sweeps the escape-VC re-route
// timeout.
func BenchmarkAblationEscapeVCTimeout(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationEscapeVC(m, []int64{4, 16, 64}, benchOpts())
		if len(res) != 3 {
			b.Fatal("want 3 timeout points")
		}
	}
}

// BenchmarkAblationShortcutWidth splits the fixed RF-I aggregate into
// different shortcut widths.
func BenchmarkAblationShortcutWidth(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationShortcutWidth(m, []int{8, 16, 32}, benchOpts())
		if len(res) != 3 {
			b.Fatal("want 3 width points")
		}
	}
}

// ---------------------------------------------------------------------
// Simulator microbenchmarks.
// ---------------------------------------------------------------------

// benchNetworkCycles reports simulated network cycles per second.
func benchNetworkCycles(b *testing.B, cfg rfnoc.Config, pat rfnoc.Pattern) {
	gen := traffic.NewProbabilistic(cfg.Mesh, pat, 0, 1)
	n := rfnoc.NewNetwork(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(n.Now(), n.Inject)
		n.Step()
	}
	b.ReportMetric(float64(n.Stats().FlitsEjected)/float64(b.N), "flits/cycle")
}

// BenchmarkNetworkStep16B measures simulator throughput on the loaded
// 16B baseline.
func BenchmarkNetworkStep16B(b *testing.B) {
	m := rfnoc.NewMesh()
	benchNetworkCycles(b, rfnoc.BaselineConfig(m, rfnoc.Width16B), rfnoc.Uniform)
}

// BenchmarkNetworkStep4BShortcuts measures throughput on the 4B mesh
// with the static overlay (more flits in flight, RF ports active).
func BenchmarkNetworkStep4BShortcuts(b *testing.B) {
	m := rfnoc.NewMesh()
	benchNetworkCycles(b, rfnoc.StaticConfig(m, rfnoc.Width4B), rfnoc.Hotspot2)
}

// BenchmarkShortcutSelectionMaxCost times the O(B*V^3) heuristic.
func BenchmarkShortcutSelectionMaxCost(b *testing.B) {
	m := topology.New10x10()
	g := m.Graph()
	p := shortcut.Params{Budget: 16, Eligible: m.ShortcutEligible}
	for i := 0; i < b.N; i++ {
		if got := shortcut.SelectMaxCost(g, p); len(got) != 16 {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkShortcutSelectionPermutation times the incremental
// permutation-graph heuristic.
func BenchmarkShortcutSelectionPermutation(b *testing.B) {
	m := topology.New10x10()
	g := m.Graph()
	p := shortcut.Params{Budget: 4, Eligible: m.ShortcutEligible}
	for i := 0; i < b.N; i++ {
		if got := shortcut.SelectGreedyPermutation(g, p); len(got) != 4 {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkShortcutSelectionRegion times region-based application-
// specific selection on a hotspot profile.
func BenchmarkShortcutSelectionRegion(b *testing.B) {
	m := topology.New10x10()
	g := m.Graph()
	freq := traffic.FrequencyMatrix(traffic.NewProbabilistic(m, traffic.Hotspot1, 0, 1), m.N(), 10000)
	p := shortcut.Params{
		Budget: 16, Eligible: m.ShortcutEligible,
		Freq: freq, MeshW: m.W, MeshH: m.H,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := shortcut.SelectRegionBased(g, p); len(got) == 0 {
			b.Fatal("selection failed")
		}
	}
}

// BenchmarkAPSP times all-pairs shortest paths on the mesh graph, the
// inner loop of every selector.
func BenchmarkAPSP(b *testing.B) {
	g := graph.Grid(10, 10)
	for i := 0; i < b.N; i++ {
		if apsp := g.AllPairs(); apsp[0][99] != 18 {
			b.Fatal("wrong distance")
		}
	}
}

// BenchmarkRFMulticast measures the RF multicast path end to end.
func BenchmarkRFMulticast(b *testing.B) {
	m := rfnoc.NewMesh()
	cfg := rfnoc.BaselineConfig(m, rfnoc.Width16B)
	cfg.Multicast = rfnoc.MulticastRF
	cfg.RFEnabled = m.RFPlacement(50)
	n := rfnoc.NewNetwork(cfg)
	src := m.CentralBank(0)
	dbv := uint64(0)
	for ci := 0; ci < 64; ci += 3 {
		dbv |= 1 << uint(ci)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Inject(rfnoc.Message{Src: src, Class: rfnoc.Invalidate, Multicast: true, DBV: dbv, Inject: n.Now()})
		for j := 0; j < 8; j++ {
			n.Step()
		}
	}
	if !n.Drain(1_000_000) {
		b.Fatal("drain failed")
	}
}
