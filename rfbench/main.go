// Command rfbench is the repository's benchmark. One invocation runs one
// named workload against the simulator's production entry points,
// checks every output it gets back, and prints one JSON record as its
// last line of standard output:
//
//	rfbench --workload long-point --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the record holds the end-to-end metrics; with --trace 1
// the run records spans around each call it makes into a layer, writes
// them under <out>/traces, and the record holds the per-layer metrics.
// A line before the record states the run's facts: nproc, GOMAXPROCS,
// sample counts, the result digest and any failed check.
//
//	rfbench --compare setA.jsonl setB.jsonl
//
// compares two sets of run records (the concatenated output of several
// runs) against the bounds in BENCHMARK.json.
//
// rfbench/run.sh builds this program and the rfsimd daemon from the
// checkout and runs it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
)

// workerEnv marks a process the sweep-short worker pool spawned: it
// speaks the worker frame protocol instead of benchmarking.
const workerEnv = "RFBENCH_WORKER"

func main() {
	if code, ok := helper(); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// helper runs this process as a helper the benchmark spawned, if it is
// one: a sweep worker, or a mesh-timing process.
func helper() (code int, ok bool) {
	switch {
	case os.Getenv(workerEnv) == "1":
		return experiments.WorkerMain(os.Stdin, os.Stdout, os.Stderr), true
	case os.Getenv(meshEnv) == "1":
		return meshMain(os.Stdout), true
	}
	return 0, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; every point seed is derived from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	rfsimd := fs.String("rfsimd", filepath.Join(".bench_build", "bin", "rfsimd"), "rfsimd binary the service workload launches")
	out := fs.String("out", ".bench_build", "directory for traces and run state")
	compare := fs.Bool("compare", false, "compare two run sets given as arguments: --compare setA setB")
	benchJSON := fs.String("bench-json", "BENCHMARK.json", "benchmark definition holding the bounds --compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "rfbench: --compare takes two run-set files")
			return 2
		}
		return compareMain(*benchJSON, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "rfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "rfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	dir := filepath.Join(*out, "run", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "rfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		scale:  1,
		nproc:  nproc,
		rfsimd: *rfsimd,
		dir:    dir,
	}
	if *trace == 1 {
		e.tr = NewTracer()
	}
	res, err := wl(context.Background(), e)
	if err != nil {
		fmt.Fprintf(stderr, "rfbench: %s: %v\n", *name, err)
		return 1
	}

	rec, info, err := report(*name, e, res)
	if err != nil {
		fmt.Fprintf(stderr, "rfbench: %v\n", err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := e.tr.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "rfbench: writing trace: %v\n", err)
			return 1
		}
		info.Trace = path
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "rfbench: %s: check failed: %s\n", *name, p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		return 1
	}
	if err := enc.Encode(rec); err != nil {
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// env is what a workload runs with.
type env struct {
	seed   int64
	budget time.Duration // length of the measured phase
	// scale divides every simulated length: 1 in real runs, larger in
	// the smoke tests.
	scale  int64
	nproc  int
	tr     *Tracer // nil in an untraced run
	rfsimd string  // daemon binary for the service workload
	dir    string  // this run's working directory, removed at exit
}

// cycles scales a simulated length, keeping it at least 1.
func (e *env) cycles(n int64) int64 { return max(n/e.scale, 1) }

// result is what a workload measured.
type result struct {
	setup   []time.Duration // one per set-up repetition; the median is reported
	ops     []time.Duration // closed-loop operation latencies
	elapsed time.Duration   // the measured phase, first op start to last op end
	rssMB   float64         // median resident memory over the measured phase

	attempted int
	failed    int
	problems  []string // one line per failed check

	// layers holds per-layer metrics the workload computed itself;
	// span-derived ones are added by report.
	layers map[string]float64
	digest string             // sha256 over the outputs that identify the run's work
	facts  map[string]float64 // deterministic outputs worth comparing across runs
}

func newResult() *result {
	return &result{layers: map[string]float64{}, facts: map[string]float64{}}
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// info is the line printed before the record: the facts about the run
// that a reader of its metrics needs.
type info struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Ops        int                `json:"ops"`
	SetupReps  int                `json:"setup_reps"`
	OpTail     *tailInfo          `json:"op_tail,omitempty"`
	Digest     string             `json:"result_digest,omitempty"`
	Facts      map[string]float64 `json:"facts,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
	Trace      string             `json:"trace,omitempty"`
}

// tailInfo is the op latency tail by the percentile rule (see tail).
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	MS         float64 `json:"ms"`
	Samples    int     `json:"samples"`
}

// report turns a workload's result into the record and the info line.
func report(name string, e *env, res *result) (record, info, error) {
	inf := info{
		Workload:   name,
		Seed:       e.seed,
		Seconds:    e.budget.Seconds(),
		Traced:     e.tr != nil,
		NProc:      e.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ops:        len(res.ops),
		SetupReps:  len(res.setup),
		Digest:     res.digest,
		Facts:      res.facts,
		Problems:   res.problems,
	}
	ops := sortedMS(res.ops)
	if p, v, n, ok := tail(ops); ok {
		inf.OpTail = &tailInfo{Percentile: p, MS: v, Samples: n}
	}
	rec := record{
		Attempted: res.attempted,
		Failed:    res.failed,
	}
	if rec.Attempted < 1 {
		rec.Attempted = 1
		rec.Failed = max(rec.Failed, 1)
		res.fail("the workload attempted nothing")
		inf.Problems = res.problems
	}
	rec.Correct = len(res.problems) == 0 && rec.Failed == 0

	var got map[string]float64
	var list []metric
	if e.tr == nil {
		if len(ops) == 0 || len(res.setup) == 0 || res.elapsed <= 0 {
			return record{}, info{}, errors.New("untraced run measured no operations")
		}
		got = map[string]float64{
			"setup_s":   median(sortedMS(res.setup)) / 1000,
			"ops_per_s": float64(len(ops)) / res.elapsed.Seconds(),
			"op_p50_ms": percentile(ops, 50),
			"rss_mb":    res.rssMB,
		}
		list = endToEnd
	} else {
		spans := e.tr.Spans()
		got = probeLayers(spans)
		got["bench.span_coverage_frac"] = coverage(spans, name)
		got["bench.trace_overhead_frac"] = e.tr.overhead(spans, name)
		for k, v := range res.layers {
			got[k] = v
		}
		list = perLayer
	}
	vals, err := fill(list, got)
	if err != nil {
		return record{}, info{}, err
	}
	rec.Metrics = vals
	return rec, inf, nil
}

// workloads are the benchmark's inputs; README.md says why each is
// there. Each runs in a fresh process: the adaptive-selection memo is
// process-global, and a second in-process pass would time a warm memo.
var workloads = map[string]func(context.Context, *env) (*result, error){
	"figures":     runFigures,
	"long-point":  runLongPoint,
	"sweep-short": runSweepShort,
	"service":     runService,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
