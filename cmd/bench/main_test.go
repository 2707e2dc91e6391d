package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestBenchLineParsing(t *testing.T) {
	cases := []struct {
		line string
		name string
		want map[string]float64 // nil: the line must not parse
	}{
		{"BenchmarkStepIdle-4   \t 4333453\t       275.3 ns/op\t       0 B/op\t       0 allocs/op", "BenchmarkStepIdle",
			map[string]float64{"ns/op": 275.3, "B/op": 0, "allocs/op": 0}},
		{"BenchmarkStepBaseline16B \t 100000 \t 2924 ns/op \t 0 B/op \t 0 allocs/op", "BenchmarkStepBaseline16B",
			map[string]float64{"ns/op": 2924, "B/op": 0, "allocs/op": 0}},
		{"BenchmarkFig9Multicast-1 \t 1 \t 14288971487 ns/op \t 559072488 B/op \t 12518835 allocs/op", "BenchmarkFig9Multicast",
			map[string]float64{"ns/op": 14288971487, "B/op": 559072488, "allocs/op": 12518835}},
		// A b.ReportMetric unit sits between ns/op and B/op.
		{"BenchmarkSweepThroughput/isolated-2 \t 1 \t 131000000 ns/op \t 61.0 points/sec \t 25000000 B/op \t 196000 allocs/op",
			"BenchmarkSweepThroughput/isolated",
			map[string]float64{"ns/op": 131000000, "points/sec": 61, "B/op": 25000000, "allocs/op": 196000}},
		{"BenchmarkNoNs-2 \t 10 \t 5 flits/cycle", "", nil},
		{"BenchmarkStepIdle-4 --- FAIL: boom", "", nil},
		{"ok  \trepro\t14.3s", "", nil},
		{"PASS", "", nil},
	}
	for _, c := range cases {
		name, got, ok := parseBenchLine(c.line)
		if c.want == nil {
			if ok {
				t.Errorf("line %q: unexpectedly parsed as %q %v", c.line, name, got)
			}
			continue
		}
		if !ok {
			t.Errorf("line %q: no parse", c.line)
			continue
		}
		if name != c.name || !reflect.DeepEqual(got, c.want) {
			t.Errorf("line %q: got (%q, %v), want (%q, %v)", c.line, name, got, c.name, c.want)
		}
	}
}

func TestSummarizeKeepsEveryUnit(t *testing.T) {
	got := summarize("./internal/experiments", []string{
		"BenchmarkSweepThroughput/inproc-2 \t 1 \t 100 ns/op \t 60 points/sec \t 2000 B/op \t 30 allocs/op",
		"BenchmarkSweepThroughput/inproc-2 \t 1 \t 300 ns/op \t 20 points/sec \t 4000 B/op \t 50 allocs/op",
		"PASS",
	})
	want := []benchResult{{
		Name: "BenchmarkSweepThroughput/inproc", Pkg: "./internal/experiments",
		NsOp: 200, BOp: 3000, AllocsOp: 40,
		Metrics: map[string]float64{"points/sec": 40}, Runs: 2,
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// The core count must be in every record beside GOMAXPROCS.
func TestReportRecordsCores(t *testing.T) {
	rep := newReport(3)
	if rep.NProc != runtime.NumCPU() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("nproc %d, gomaxprocs %d; want %d, %d", rep.NProc, rep.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["nproc"] != float64(runtime.NumCPU()) {
		t.Errorf("artifact nproc = %v, want %d", fields["nproc"], runtime.NumCPU())
	}
}

func TestArtifactNumbering(t *testing.T) {
	for path, want := range map[string]int{
		"BENCH_5.json":                5,
		"x/y/BENCH_12.json":           12,
		"BENCH_ci.json":               -1,
		"BENCH_5.json.bak":            -1,
		"NOTBENCH_5.json":             -1,
		"BENCH_-3.json":               -1,
		filepath.Join("BENCH_0.json"): 0,
	} {
		if got := artifactNum(path); got != want {
			t.Errorf("artifactNum(%q) = %d, want %d", path, got, want)
		}
	}
	dir := t.TempDir()
	if got := nextArtifactName(dir); got != "BENCH_1.json" {
		t.Errorf("empty dir next artifact = %q, want BENCH_1.json", got)
	}
}

func TestCompare(t *testing.T) {
	base := report{Benchmarks: []benchResult{
		{Name: "BenchmarkStepIdle", Pkg: "./internal/noc", NsOp: 100},
		{Name: "BenchmarkStepBaseline16B", Pkg: "./internal/noc", NsOp: 3000},
		{Name: "BenchmarkRetired", Pkg: ".", NsOp: 50},
	}}
	cur := report{Benchmarks: []benchResult{
		{Name: "BenchmarkStepIdle", Pkg: "./internal/noc", NsOp: 109},         // +9%: under threshold
		{Name: "BenchmarkStepBaseline16B", Pkg: "./internal/noc", NsOp: 3600}, // +20%: regression
		{Name: "BenchmarkNew", Pkg: ".", NsOp: 999},                           // no baseline: skipped
	}}
	regs := compare(cur, base, 0.10)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions (%v), want 1", len(regs), regs)
	}
}
