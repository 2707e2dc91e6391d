package experiments

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// TestSummaryMatchesFigures checks that Summary's one pass over the
// points its claims read yields exactly the means Fig7, Fig8 and Fig9
// compute on their own: each of its 18 claims, matched by name, must
// equal its figure's mean bit for bit.
func TestSummaryMatchesFigures(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 500, ProfileCycles: 2000}
	mean := map[string]NormPoint{}
	for _, f := range []Fig7Result{Fig7(m, opts), Fig8(m, opts)} {
		for i, np := range f.Means() {
			mean[f.Designs[i]] = np
		}
	}
	f9 := Fig9(m, opts)
	for i, np := range f9.Means() {
		mean[f9.Configs[i]] = np
	}
	want := map[string]float64{
		"static shortcuts: latency vs 16B baseline": mean["static-16B"].Latency,
		"static shortcuts: power vs 16B baseline":   mean["static-16B"].Power,
		"adaptive-50: latency vs 16B baseline":      mean["adaptive50-16B"].Latency,
		"adaptive-50: power vs 16B baseline":        mean["adaptive50-16B"].Power,
		"adaptive-25: latency vs 16B baseline":      mean["adaptive25-16B"].Latency,
		"adaptive-25: power vs 16B baseline":        mean["adaptive25-16B"].Power,
		"8B baseline: power vs 16B":                 mean["baseline-8B"].Power,
		"8B baseline: latency vs 16B":               mean["baseline-8B"].Latency,
		"4B baseline: power vs 16B":                 mean["baseline-4B"].Power,
		"4B baseline: latency vs 16B":               mean["baseline-4B"].Latency,
		"4B static: power vs 16B baseline":          mean["static-4B"].Power,
		"4B static: latency vs 16B baseline":        mean["static-4B"].Latency,
		"4B adaptive: power vs 16B baseline":        mean["adaptive50-4B"].Power,
		"4B adaptive: latency vs 16B baseline":      mean["adaptive50-4B"].Latency,
		"RF multicast: latency vs baseline":         mean["MC-20"].Latency,
		"RF multicast: power vs baseline":           mean["MC-20"].Power,
		"MC+SC: latency vs baseline":                mean["MC+SC-20"].Latency,
		"MC+SC: power vs baseline":                  mean["MC+SC-20"].Power,
	}
	claims := Summary(m, opts)
	if len(claims) != len(want) {
		t.Fatalf("Summary returned %d claims, want %d", len(claims), len(want))
	}
	for _, c := range claims {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("unexpected claim %q", c.Name)
			continue
		}
		if math.Float64bits(c.Measured) != math.Float64bits(w) {
			t.Errorf("claim %q = %v, want the figure's %v", c.Name, c.Measured, w)
		}
	}
}

// TestSummaryPlan pins what a Summary simulates: 77 distinct points, 7
// frequency-matrix profiles (one per trace), and no point that no claim
// reads, directly or as its baseline.
func TestSummaryPlan(t *testing.T) {
	p := newPlan(claimSeries())
	if len(p.points) != 77 {
		t.Errorf("Summary's plan has %d points, want 77", len(p.points))
	}
	if len(p.profiles) != 7 {
		t.Errorf("Summary's plan profiles %d traces, want 7", len(p.profiles))
	}
	seen := map[point]bool{}
	for _, pt := range p.points {
		if seen[pt] {
			t.Errorf("point %s on %s planned twice", pt.design.Name(), pt.pattern)
		}
		seen[pt] = true
		read := false
		for _, c := range claimTable {
			read = read || c.series == pt.series || c.series.baseline() == pt.series
		}
		if !read {
			t.Errorf("point %s (locality %d) on %s is read by no claim",
				pt.design.Name(), pt.locality, pt.pattern)
		}
	}
}
