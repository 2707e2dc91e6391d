package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestJudgeAppliesTheBound(t *testing.T) {
	lower := bound{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		m    bound
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"lower-is-better 5% slower is within bound", lower, steady, scale(steady, 1.05), "ok"},
		{"lower-is-better 15% slower regresses", lower, steady, scale(steady, 1.15), "regressed"},
		{"lower-is-better 15% faster is fine", lower, steady, scale(steady, 0.85), "ok"},
		{"higher-is-better 15% lower regresses", higher, steady, scale(steady, 0.85), "regressed"},
		{"higher-is-better 15% higher is fine", higher, steady, scale(steady, 1.15), "ok"},
		{"spread wider than the bound is unresolved", lower, steady, noisy, "unresolved"},
		{"unless every run is better", lower, noisy, scale(noisy, 0.2), "better"},
	} {
		v, err := judge(c.m, c.a, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v.Call != c.want {
			t.Errorf("%s: verdict %s (change %+.3f, spreads %.3f/%.3f), want %s",
				c.name, v.Call, v.Change, v.A.spread(), v.B.spread(), c.want)
		}
	}
	if _, err := judge(lower, []float64{1}, steady); err == nil {
		t.Error("a set of one run has no quartiles; judge should refuse it")
	}
}

// runOutput renders one run the way the benchmark prints it.
func runOutput(t *testing.T, inf info, metrics map[string]float64) string {
	t.Helper()
	rec := record{Correct: true, Attempted: 1, Metrics: map[string]value{}}
	for k, v := range metrics {
		rec.Metrics[k] = value{Value: v, Unit: "ms"}
	}
	a, err := json.Marshal(inf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return "go: building\n" + string(a) + "\n" + string(b) + "\n"
}

func TestCompareRunsReadsSetsAndFlagsDeterministicDiffs(t *testing.T) {
	def := benchDef{EndToEnd: []bound{{Name: "op_p50_ms", Better: "lower", Bound: 0.1}}}
	var setA, setB strings.Builder
	for seed := int64(1); seed <= 4; seed++ {
		setA.WriteString(runOutput(t, info{Workload: "sweep-short", Seed: seed, Digest: "d"}, map[string]float64{"op_p50_ms": 10 + float64(seed)/10}))
		digest := "d"
		if seed == 3 {
			digest = "other"
		}
		setB.WriteString(runOutput(t, info{Workload: "sweep-short", Seed: seed, Digest: digest}, map[string]float64{"op_p50_ms": 10 + float64(seed)/10}))
	}
	// A traced run is never judged against the bounds.
	setB.WriteString(runOutput(t, info{Workload: "sweep-short", Seed: 9, Traced: true}, map[string]float64{"op_p50_ms": 1000}))

	a, err := readRuns(strings.NewReader(setA.String()))
	if err != nil || len(a) != 4 {
		t.Fatalf("read %d runs (%v), want 4", len(a), err)
	}
	b, err := readRuns(strings.NewReader(setB.String()))
	if err != nil || len(b) != 5 {
		t.Fatalf("read %d runs (%v), want 5", len(b), err)
	}
	verdicts, diffs, err := compareRuns(def, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Call != "ok" || verdicts[0].A.N != 4 || verdicts[0].B.N != 4 {
		t.Errorf("verdicts = %+v, want one ok verdict over 4 untraced runs a side", verdicts)
	}
	if len(diffs) != 1 || !strings.Contains(diffs[0], "seed 3: result digest") {
		t.Errorf("diffs = %q, want the seed-3 digest", diffs)
	}
}

// The catalogue in metrics.go is what the runs print; BENCHMARK.json is
// what whoever runs the benchmark, and --compare, read. They must name
// the same metrics.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(def.EndToEnd), len(endToEnd))
	}
	for i, b := range def.EndToEnd {
		if m := endToEnd[i]; m != (metric{b.Name, b.Unit, b.Better}) || b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, b, m)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(def.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range def.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, m, perLayer[i])
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if err := checkMetricName(m.Name); err != nil {
			t.Error(err)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is defined twice", m.Name)
		}
		seen[m.Name] = true
	}
}
