package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// fastOpts keeps unit tests quick; the shapes asserted here are coarse
// enough to be stable at this budget.
func fastOpts() Options {
	return Options{Cycles: 6000, ProfileCycles: 6000, Seed: 1}
}

func TestDesignNames(t *testing.T) {
	cases := []struct {
		d    Design
		want string
	}{
		{Design{Kind: Baseline, Width: tech.Width16B}, "baseline-16B"},
		{Design{Kind: Static, Width: tech.Width8B}, "static-8B"},
		{Design{Kind: WireStatic, Width: tech.Width16B}, "wire-static-16B"},
		{Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width4B}, "adaptive50-4B"},
		{Design{Kind: Baseline, Width: tech.Width16B, Multicast: noc.MulticastVCT}, "baseline-16B+vct"},
		{Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width16B, Multicast: noc.MulticastRF}, "adaptive50-16B+mc"},
	}
	for _, c := range cases {
		if got := c.d.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestStaticShortcutsRespectConstraints(t *testing.T) {
	m := topology.New10x10()
	edges := StaticShortcuts(m, tech.ShortcutBudget)
	if len(edges) != tech.ShortcutBudget {
		t.Fatalf("selected %d, want %d", len(edges), tech.ShortcutBudget)
	}
	err := shortcut.Validate(edges, shortcut.Params{
		Budget: tech.ShortcutBudget, Eligible: m.ShortcutEligible,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveShortcutsUseOnlyRFRouters(t *testing.T) {
	m := topology.New10x10()
	gen := traffic.NewProbabilistic(m, traffic.Hotspot2, 0, 1)
	freq := traffic.FrequencyMatrix(gen, m.N(), 8000)
	rf := m.RFPlacement(50)
	rfSet := map[int]bool{}
	for _, id := range rf {
		rfSet[id] = true
	}
	edges := AdaptiveShortcuts(m, rf, freq, tech.ShortcutBudget)
	if len(edges) == 0 {
		t.Fatal("no shortcuts selected")
	}
	for _, e := range edges {
		if !rfSet[e.From] || !rfSet[e.To] {
			t.Errorf("edge %v touches a non-RF router", e)
		}
	}
}

func TestBuildMCSCSplitsReceivers(t *testing.T) {
	// The MC+SC configuration: 15 shortcuts, remaining receivers tuned to
	// the multicast band.
	m := topology.New10x10()
	profile := traffic.NewProbabilistic(m, traffic.Uniform, 0, 1)
	cfg := Build(m, Design{
		Kind: Adaptive, RFRouters: 50, Width: tech.Width16B,
		Multicast: noc.MulticastRF,
	}, profile, 5000)
	if len(cfg.Shortcuts) != 15 {
		t.Errorf("shortcuts = %d, want 15", len(cfg.Shortcuts))
	}
	n := noc.New(cfg)
	rx := n.Config().MulticastReceivers
	// 50 APs minus 15 shortcut destinations = 35 multicast receivers
	// (shortcut Rx routers are tuned to their shortcut bands).
	if len(rx) != 35 {
		t.Errorf("multicast receivers = %d, want 35", len(rx))
	}
}

func TestRunDesignProducesSaneResult(t *testing.T) {
	m := topology.New10x10()
	r := RunDesign(m, Design{Kind: Baseline, Width: tech.Width16B}, traffic.Uniform, fastOpts())
	if !r.Drained {
		t.Fatal("run did not drain")
	}
	if r.AvgLatency < 10 || r.AvgLatency > 200 {
		t.Errorf("implausible latency %v", r.AvgLatency)
	}
	if r.PowerW < 1 || r.PowerW > 30 {
		t.Errorf("implausible power %v", r.PowerW)
	}
	if r.Workload != "Uniform" || r.Design != "baseline-16B" {
		t.Errorf("labels wrong: %q %q", r.Workload, r.Design)
	}
}

func TestShapeStaticBeatsBaselineCostsPower(t *testing.T) {
	m := topology.New10x10()
	opts := fastOpts()
	base := RunDesign(m, Design{Kind: Baseline, Width: tech.Width16B}, traffic.Uniform, opts)
	st := RunDesign(m, Design{Kind: Static, Width: tech.Width16B}, traffic.Uniform, opts)
	if st.AvgLatency >= base.AvgLatency {
		t.Errorf("static latency %v !< baseline %v", st.AvgLatency, base.AvgLatency)
	}
	if st.PowerW <= base.PowerW {
		t.Errorf("static power %v !> baseline %v", st.PowerW, base.PowerW)
	}
}

func TestShapeBandwidthReduction(t *testing.T) {
	// The paper's Figure 8 shape on one trace: narrower mesh means less
	// power and more latency; the adaptive overlay recovers most of the
	// latency while keeping most of the savings.
	m := topology.New10x10()
	opts := fastOpts()
	b16 := RunDesign(m, Design{Kind: Baseline, Width: tech.Width16B}, traffic.Uniform, opts)
	b4 := RunDesign(m, Design{Kind: Baseline, Width: tech.Width4B}, traffic.Uniform, opts)
	a4 := RunDesign(m, Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width4B}, traffic.Uniform, opts)
	if b4.PowerW >= 0.5*b16.PowerW {
		t.Errorf("4B power %v not well below 16B %v", b4.PowerW, b16.PowerW)
	}
	if b4.AvgLatency <= b16.AvgLatency {
		t.Errorf("4B latency %v should exceed 16B %v", b4.AvgLatency, b16.AvgLatency)
	}
	if a4.AvgLatency >= b4.AvgLatency {
		t.Errorf("adaptive 4B latency %v should beat baseline 4B %v", a4.AvgLatency, b4.AvgLatency)
	}
	if a4.PowerW >= 0.6*b16.PowerW {
		t.Errorf("adaptive 4B power %v should stay well below 16B baseline %v", a4.PowerW, b16.PowerW)
	}
}

func TestTable2RowsMatchPaper(t *testing.T) {
	m := topology.New10x10()
	rows := Table2(m)
	want := map[string]float64{
		"Mesh Baseline (16B)":      30.29,
		"Mesh Baseline (8B)":       9.38,
		"Mesh Baseline (4B)":       3.25,
		"Mesh (16B) Arch-Specific": 32.65,
		"Mesh (16B) + 50 RF-I APs": 37.66,
		"Mesh (8B) Arch-Specific":  10.41,
		"Mesh (8B) + 50 RF-I APs":  12.60,
		"Mesh (4B) Arch-Specific":  3.92,
		"Mesh (4B) + 50 RF-I APs":  5.34,
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.Design]
		if !ok {
			t.Errorf("unexpected row %q", r.Design)
			continue
		}
		if diff := r.Total - w; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s total = %.2f, want %.2f", r.Design, r.Total, w)
		}
	}
	if !strings.Contains(RenderTable2(rows), "Mesh Baseline (16B)") {
		t.Error("render missing rows")
	}
}

func TestFig1HistogramsContrast(t *testing.T) {
	m := topology.New10x10()
	r := Fig1(m, fastOpts())
	if len(r.Apps) != 5 {
		t.Fatalf("apps = %d, want 5", len(r.Apps))
	}
	frac1 := func(h []int64) float64 {
		var tot, one int64
		for d := 1; d < len(h); d++ {
			tot += h[d]
		}
		one = h[1]
		return float64(one) / float64(tot)
	}
	// bodytrack (index 1) must be far more single-hop dominated than
	// x264 (index 0), the paper's Figure 1 contrast.
	if frac1(r.Histograms[1]) <= 1.5*frac1(r.Histograms[0]) {
		t.Errorf("bodytrack 1-hop share %.2f vs x264 %.2f: contrast missing",
			frac1(r.Histograms[1]), frac1(r.Histograms[0]))
	}
	if !strings.Contains(r.Render(), "bodytrack") {
		t.Error("render missing app names")
	}
}

func TestAblationHeuristicsComparable(t *testing.T) {
	m := topology.New10x10()
	perm, maxc := AblationHeuristics(m, 8)
	base := m.Graph().TotalPairCost()
	if perm >= base || maxc >= base {
		t.Fatal("heuristics did not improve the objective")
	}
	// The paper found them comparable; permutation optimizes the
	// objective directly so it must not lose by much.
	if float64(perm) > 1.05*float64(maxc) {
		t.Errorf("permutation (%d) much worse than max-cost (%d)", perm, maxc)
	}
}

func TestAdaptiveCacheReusesSelection(t *testing.T) {
	m := topology.New10x10()
	opts := fastOpts()
	d16 := Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width16B}
	d4 := Design{Kind: Adaptive, RFRouters: 50, Width: tech.Width4B}
	opts = opts.WithDefaults()
	cfg16 := Build(m, d16, traffic.NewProbabilistic(m, traffic.Hotspot1, opts.Rate, opts.Seed), opts.ProfileCycles)
	cfg4 := Build(m, d4, traffic.NewProbabilistic(m, traffic.Hotspot1, opts.Rate, opts.Seed), opts.ProfileCycles)
	if len(cfg16.Shortcuts) != len(cfg4.Shortcuts) {
		t.Fatal("cached selections differ in size")
	}
	for i := range cfg16.Shortcuts {
		if cfg16.Shortcuts[i] != cfg4.Shortcuts[i] {
			t.Fatal("cached selections differ across widths")
		}
	}
}

// The ablation's region arm measures the region-based selector's own set,
// not the adaptive designs' selection.
func TestAblationRegionRunsRegionSet(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 2000, ProfileCycles: 6000, Seed: 1}.WithDefaults()
	region, _ := AblationRegion(m, opts)

	profile := traffic.NewProbabilistic(m, traffic.Hotspot1, opts.Rate, opts.Seed)
	freq := traffic.FrequencyMatrix(profile, m.N(), opts.ProfileCycles)
	rfSet := m.RFPlacement(50)
	rf := map[int]bool{}
	for _, id := range rfSet {
		rf[id] = true
	}
	edges := shortcut.SelectRegionBased(m.Graph(), shortcut.Params{
		Budget:   tech.ShortcutBudget,
		Eligible: func(id int) bool { return rf[id] && m.ShortcutEligible(id) },
		Freq:     freq,
		MeshW:    m.W,
		MeshH:    m.H,
	})
	cfg := noc.Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges, RFEnabled: rfSet}
	want := Run(cfg, traffic.NewProbabilistic(m, traffic.Hotspot1, opts.Rate, opts.Seed), opts).AvgLatency
	if region != want {
		t.Errorf("region arm latency %v, want %v from SelectRegionBased's set", region, want)
	}
}

// TestLookupWorkloadPermutations: the registry resolves each permutation
// name in any letter case to the generator traffic.NewSynthetic builds,
// with the same name and the same first 1,000 messages.
func TestLookupWorkloadPermutations(t *testing.T) {
	m := topology.New10x10()
	first := func(gen traffic.Generator) []noc.Message {
		var msgs []noc.Message
		for now := int64(0); len(msgs) < 1000; now++ {
			gen.Tick(now, func(msg noc.Message) { msgs = append(msgs, msg) })
		}
		return msgs[:1000]
	}
	for _, p := range traffic.Permutations() {
		want := traffic.NewSynthetic(m, p, 0.03, 7)
		wantMsgs := first(want)
		for _, name := range []string{p.String(), strings.ToUpper(p.String()), strings.ToUpper(p.String()[:1]) + p.String()[1:]} {
			mk, err := LookupWorkload(m, name)
			if err != nil {
				t.Fatalf("LookupWorkload(%q): %v", name, err)
			}
			gen := mk(0.03, 7)
			if gen.Name() != want.Name() {
				t.Errorf("LookupWorkload(%q) name = %q, want %q", name, gen.Name(), want.Name())
			}
			if !slices.Equal(first(gen), wantMsgs) {
				t.Errorf("LookupWorkload(%q) injects other messages than NewSynthetic", name)
			}
		}
	}
}
