// Command bench runs the repository's pinned benchmark suite and turns
// it into a regression gate. It executes the BenchmarkStep* hot-path
// benchmarks (internal/noc), the BenchmarkFig* figure-reproduction
// benchmarks (root package), the BenchmarkSweepThroughput isolation
// overhead benchmark (internal/experiments), BenchmarkSummary (the 18
// headline claims) and the per-point set-up benchmarks
// (BenchmarkShortcutSelection*, BenchmarkAdaptiveShortcuts,
// BenchmarkBuildRoutes, and rfsimd's warm BenchmarkCompileRequest)
// -count times each, takes the per-benchmark median of ns/op, B/op,
// allocs/op and every custom b.ReportMetric unit (e.g. points/sec), and
// writes the result, with the host's core count, as a BENCH_<n>.json
// artifact. When a previous BENCH_*.json exists in -dir, the run is
// compared against the newest one and any benchmark whose median ns/op
// regressed by more than -threshold fails the gate — or, with -soft,
// emits a GitHub Actions "::warning ::" annotation and exits 0 (CI uses
// soft mode so noisy shared runners cannot block a merge on their own).
//
// Usage:
//
//	go run ./cmd/bench [-out BENCH_5.json] [-count 5] [-threshold 0.10]
//	      [-soft] [-dir .] [-steptime 1s] [-skip-compare]
//
// The zero-alloc gate is hard in both modes: any BenchmarkStep*
// benchmark with a non-zero steady-state allocs/op median fails the
// run, because the hot path is designed (and tested) to recycle every
// packet and scratch buffer it touches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type benchResult struct {
	Name     string  `json:"name"`
	Pkg      string  `json:"pkg"`
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
	// Metrics holds the medians of custom units reported with
	// b.ReportMetric, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Runs    int                `json:"runs"`
}

type report struct {
	Schema     int           `json:"schema"`
	GoVersion  string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPU        string        `json:"cpu,omitempty"`
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Count      int           `json:"count"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// suite is one pinned `go test -bench` invocation.
type suite struct {
	pkg       string
	regex     string
	benchtime string // empty: go's default
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "", "output JSON file (default BENCH_<next>.json in -dir)")
	count := fs.Int("count", 5, "runs per benchmark; medians are reported")
	threshold := fs.Float64("threshold", 0.10, "relative ns/op regression that fails the gate")
	soft := fs.Bool("soft", false, "report regressions as ::warning :: annotations and exit 0")
	dir := fs.String("dir", ".", "repository root: where BENCH_*.json artifacts live")
	steptime := fs.String("steptime", "1s", "benchtime for the BenchmarkStep* suite")
	skipCompare := fs.Bool("skip-compare", false, "write the artifact without comparing to a baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "bench: -count must be at least 1")
		return 2
	}

	suites := []suite{
		// Hot-path microbenchmarks: many fast iterations, bounded time.
		{pkg: "./internal/noc", regex: "^BenchmarkStep", benchtime: *steptime},
		// Figure reproductions do a fixed sweep per iteration: one is enough.
		{pkg: ".", regex: "^BenchmarkFig", benchtime: "1x"},
		// The headline claims as the figures job computes them, each
		// iteration on a fresh seed so the adaptive selections stay cold.
		{pkg: ".", regex: "^BenchmarkSummary$", benchtime: "1x"},
		// Sweep throughput, in-process vs worker-process isolation: pins
		// the subprocess tax so -isolate overhead regressions fail the gate.
		{pkg: "./internal/experiments", regex: "^BenchmarkSweepThroughput", benchtime: "1x"},
		// Per-point set-up: shortcut selection (the static heuristics and
		// the adaptive selection a Summary repeats per workload) and
		// network construction with its route tables.
		{pkg: ".", regex: "^BenchmarkShortcutSelection"},
		{pkg: "./internal/experiments", regex: "^BenchmarkAdaptiveShortcuts"},
		{pkg: "./internal/noc", regex: "^BenchmarkBuildRoutes"},
		// A repeated rfsimd POST's compile, with warm selection and
		// profile memos.
		{pkg: "./cmd/rfsimd", regex: "^BenchmarkCompileRequest"},
	}

	rep := newReport(*count)
	for _, s := range suites {
		results, cpu, err := runSuite(*dir, s, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.pkg, err)
			return 1
		}
		if rep.CPU == "" {
			rep.CPU = cpu
		}
		rep.Benchmarks = append(rep.Benchmarks, results...)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		if rep.Benchmarks[i].Pkg != rep.Benchmarks[j].Pkg {
			return rep.Benchmarks[i].Pkg < rep.Benchmarks[j].Pkg
		}
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmarks matched the pinned suite")
		return 1
	}

	baseline, basePath := newestBaseline(*dir)
	outPath := *out
	if outPath == "" {
		outPath = filepath.Join(*dir, nextArtifactName(*dir))
	}
	if err := writeJSON(outPath, rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s (%d benchmarks, count=%d)\n", outPath, len(rep.Benchmarks), *count)

	bad := false
	// Hard gate: the hot path must not allocate in steady state.
	for _, b := range rep.Benchmarks {
		if strings.HasPrefix(b.Name, "BenchmarkStep") && b.AllocsOp > 0 {
			fmt.Printf("FAIL %s: %g allocs/op (hot path must be allocation-free)\n", b.Name, b.AllocsOp)
			bad = true
		}
	}

	if *skipCompare || baseline == nil {
		if baseline == nil && !*skipCompare {
			fmt.Println("no prior BENCH_*.json baseline; skipping comparison")
		}
	} else {
		fmt.Printf("comparing against %s (threshold %+.0f%% ns/op)\n", basePath, *threshold*100)
		regressions := compare(rep, *baseline, *threshold)
		for _, line := range regressions {
			if *soft {
				fmt.Printf("::warning ::bench regression: %s\n", line)
			} else {
				fmt.Printf("FAIL %s\n", line)
				bad = true
			}
		}
		if len(regressions) == 0 {
			fmt.Println("no ns/op regressions above threshold")
		}
	}
	if bad {
		return 1
	}
	return 0
}

// newReport starts an artifact with the host description every record
// carries: toolchain, platform, core count and GOMAXPROCS.
func newReport(count int) report {
	return report{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      count,
	}
}

// procSuffix is the "-<GOMAXPROCS>" suffix go test appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one `go test -bench` result line, e.g.
// "BenchmarkStepIdle-4   4333453   275.3 ns/op   0 B/op   0 allocs/op",
// into the benchmark name and every "value unit" pair after the
// iteration count, keyed by unit. Custom units from b.ReportMetric may
// appear anywhere among the pairs. ok is false for any other line.
func parseBenchLine(line string) (name string, sample map[string]float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return "", nil, false
	}
	sample = map[string]float64{}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		sample[f[i+1]] = v
	}
	if _, ok := sample["ns/op"]; !ok {
		return "", nil, false
	}
	return procSuffix.ReplaceAllString(f[0], ""), sample, true
}

func runSuite(dir string, s suite, count int) ([]benchResult, string, error) {
	args := []string{"test", s.pkg, "-run", "^$", "-bench", s.regex,
		"-benchmem", "-count", strconv.Itoa(count)}
	if s.benchtime != "" {
		args = append(args, "-benchtime", s.benchtime)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	outB, err := cmd.CombinedOutput()
	out := string(outB)
	if err != nil {
		return nil, "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	lines := strings.Split(out, "\n")
	var cpu string
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
		}
	}
	return summarize(s.pkg, lines), cpu, nil
}

// summarize folds the result lines of one suite into per-benchmark
// medians of every unit, in first-seen order.
func summarize(pkg string, lines []string) []benchResult {
	samples := map[string]map[string][]float64{}
	var order []string
	for _, line := range lines {
		name, sample, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
			order = append(order, name)
		}
		for unit, v := range sample {
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	var results []benchResult
	for _, name := range order {
		units := samples[name]
		r := benchResult{Name: name, Pkg: pkg, Runs: len(units["ns/op"])}
		for unit, vals := range units {
			switch unit {
			case "ns/op":
				r.NsOp = median(vals)
			case "B/op":
				r.BOp = median(vals)
			case "allocs/op":
				r.AllocsOp = median(vals)
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = median(vals)
			}
		}
		results = append(results, r)
	}
	return results
}

// median returns the median of vals, sorting it in place.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// artifactNum extracts the numeric suffix of a BENCH_<n>.json path, or
// -1 when the name does not follow the convention.
func artifactNum(path string) int {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "BENCH_") || !strings.HasSuffix(base, ".json") {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json"))
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// newestBaseline loads the highest-numbered BENCH_<n>.json in dir.
func newestBaseline(dir string) (*report, string) {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	best, bestNum := "", -1
	for _, p := range paths {
		if n := artifactNum(p); n > bestNum {
			best, bestNum = p, n
		}
	}
	if best == "" {
		return nil, ""
	}
	data, err := os.ReadFile(best)
	if err != nil {
		return nil, ""
	}
	var rep report
	if json.Unmarshal(data, &rep) != nil {
		return nil, ""
	}
	return &rep, best
}

// nextArtifactName picks BENCH_<max+1>.json for dir.
func nextArtifactName(dir string) string {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	next := 1
	for _, p := range paths {
		if n := artifactNum(p); n >= next {
			next = n + 1
		}
	}
	return fmt.Sprintf("BENCH_%d.json", next)
}

// compare returns one description per benchmark whose median ns/op
// regressed beyond the threshold relative to the baseline. Benchmarks
// missing from either side are skipped (new benchmarks have no
// baseline; retired ones no longer gate).
func compare(cur, base report, threshold float64) []string {
	baseBy := map[string]benchResult{}
	for _, b := range base.Benchmarks {
		baseBy[b.Pkg+" "+b.Name] = b
	}
	var out []string
	for _, b := range cur.Benchmarks {
		old, ok := baseBy[b.Pkg+" "+b.Name]
		if !ok || old.NsOp <= 0 {
			continue
		}
		rel := (b.NsOp - old.NsOp) / old.NsOp
		if rel > threshold {
			out = append(out, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)",
				b.Name, old.NsOp, b.NsOp, rel*100))
		}
	}
	return out
}

func writeJSON(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
