package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"text/tabwriter"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchDef is the part of BENCHMARK.json that --compare reads.
type benchDef struct {
	EndToEnd []bound  `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// simulatedCounts are per-layer metrics that count simulated events: a
// change that only makes the simulator faster must leave them exactly
// as they were for the same seed.
var simulatedCounts = []string{"noc.drain_cycles", "noc.flits_ejected", "noc.flit_hops"}

// runLog is one run as it printed itself: the info line and the record.
type runLog struct {
	info info
	rec  record
}

// readRuns parses a run set: the concatenated output of runs, each an
// info line followed by its record.
func readRuns(r io.Reader) ([]runLog, error) {
	var out []runLog
	var cur *info
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		var line struct {
			info
			Metrics map[string]value `json:"metrics"`
			Correct bool             `json:"correct"`
			Attempt int              `json:"attempted"`
			Failed  int              `json:"failed"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // build output or other noise
		}
		switch {
		case line.Workload != "":
			inf := line.info
			cur = &inf
		case line.Metrics != nil && cur != nil:
			out = append(out, runLog{info: *cur, rec: record{
				Correct: line.Correct, Attempted: line.Attempt, Failed: line.Failed, Metrics: line.Metrics,
			}})
			cur = nil
		}
	}
	return out, sc.Err()
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	Workload, Metric string
	A, B             spreadStat
	Change           float64 // relative, positive = worse
	Bound            float64
	Call             string // "ok", "regressed", "unresolved" or "better"
}

// spreadStat is the median and quartiles of one metric over a run set.
type spreadStat struct {
	N              int
	Q1, Median, Q3 float64
}

func (s spreadStat) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

func summarize(xs []float64) (spreadStat, error) {
	sort.Float64s(xs)
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return spreadStat{}, err
	}
	return spreadStat{N: len(xs), Q1: q1, Median: median(xs), Q3: q3}, nil
}

// judge applies one metric's bound to the two sets' values. A change
// worse than the bound is a regression; when either set's spread
// exceeds the bound the comparison is unresolved, unless every value of
// b beats every value of a.
func judge(m bound, a, b []float64) (verdict, error) {
	v := verdict{Metric: m.Name, Bound: m.Bound}
	var err error
	if v.A, err = summarize(append([]float64(nil), a...)); err != nil {
		return v, err
	}
	if v.B, err = summarize(append([]float64(nil), b...)); err != nil {
		return v, err
	}
	if v.A.Median == 0 || v.B.Median == 0 {
		return v, fmt.Errorf("%s has a zero median", m.Name)
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	v.Change = sign * (v.B.Median - v.A.Median) / v.A.Median
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case max(v.A.spread(), v.B.spread()) > m.Bound:
		v.Call = "unresolved"
		if allBetter {
			v.Call = "better"
		}
	case v.Change > m.Bound:
		v.Call = "regressed"
	default:
		v.Call = "ok"
	}
	return v, nil
}

// compareRuns judges every end-to-end metric on every workload the two
// sets share, from their untraced runs, and lists every deterministic
// output that differs between runs of one workload and seed.
func compareRuns(def benchDef, a, b []runLog) ([]verdict, []string, error) {
	group := func(runs []runLog) map[string][]runLog {
		out := map[string][]runLog{}
		for _, r := range runs {
			if !r.info.Traced {
				out[r.info.Workload] = append(out[r.info.Workload], r)
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	var names []string
	for w := range ga {
		names = append(names, w)
	}
	for w := range gb {
		if _, ok := ga[w]; !ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)

	var out []verdict
	var diffs []string
	for _, w := range names {
		if len(ga[w]) == 0 || len(gb[w]) == 0 {
			diffs = append(diffs, fmt.Sprintf("%s: runs in only one set", w))
			continue
		}
		for _, m := range def.EndToEnd {
			v, err := judge(m, values(ga[w], m.Name), values(gb[w], m.Name))
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w, err)
			}
			v.Workload = w
			out = append(out, v)
		}
	}
	diffs = append(diffs, deterministicDiffs(append(append([]runLog(nil), a...), b...))...)
	return out, diffs, nil
}

func values(runs []runLog, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.rec.Metrics[name].Value)
	}
	return out
}

// deterministicDiffs lists the outputs that must repeat exactly for one
// workload and seed but did not: the result digest, the facts (such as
// the error against the paper) and, in traced runs, the simulated
// counts.
func deterministicDiffs(runs []runLog) []string {
	type key struct {
		workload string
		seed     int64
		traced   bool
	}
	first := map[key]runLog{}
	var out []string
	for _, r := range runs {
		k := key{r.info.Workload, r.info.Seed, r.info.Traced}
		f, seen := first[k]
		if !seen {
			first[k] = r
			continue
		}
		if f.info.Digest != r.info.Digest {
			out = append(out, fmt.Sprintf("%s seed %d: result digest %s vs %s", k.workload, k.seed, f.info.Digest, r.info.Digest))
		}
		for _, name := range []string{"paper_err_mean_pp", "paper_err_max_pp", "sim_cycles", "flits_ejected"} {
			if f.info.Facts[name] != r.info.Facts[name] {
				out = append(out, fmt.Sprintf("%s seed %d: %s %v vs %v", k.workload, k.seed, name, f.info.Facts[name], r.info.Facts[name]))
			}
		}
		if k.traced {
			for _, name := range simulatedCounts {
				if !reflect.DeepEqual(f.rec.Metrics[name], r.rec.Metrics[name]) {
					out = append(out, fmt.Sprintf("%s seed %d: %s %v vs %v", k.workload, k.seed, name, f.rec.Metrics[name].Value, r.rec.Metrics[name].Value))
				}
			}
		}
	}
	return out
}

// compareMain is --compare: it prints one row per workload and metric
// and exits non-zero unless every row is within its bound and every
// deterministic output repeated.
func compareMain(defPath, pathA, pathB string, stdout, stderr io.Writer) int {
	blob, err := os.ReadFile(defPath)
	if err != nil {
		fmt.Fprintf(stderr, "rfbench: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(blob, &def); err != nil {
		fmt.Fprintf(stderr, "rfbench: %s: %v\n", defPath, err)
		return 2
	}
	var sets [2][]runLog
	for i, p := range []string{pathA, pathB} {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(stderr, "rfbench: %v\n", err)
			return 2
		}
		sets[i], err = readRuns(f)
		f.Close()
		if err == nil && len(sets[i]) == 0 {
			err = errors.New("no run records")
		}
		if err != nil {
			fmt.Fprintf(stderr, "rfbench: %s: %v\n", p, err)
			return 2
		}
	}
	verdicts, diffs, err := compareRuns(def, sets[0], sets[1])
	if err != nil {
		fmt.Fprintf(stderr, "rfbench: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	code := 0
	for _, v := range verdicts {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.0f%%\t%s\n",
			v.Workload, v.Metric, v.A.Median, v.A.Q1, v.A.Q3, v.A.N, v.B.Median, v.B.Q1, v.B.Q3, v.B.N,
			100*v.Change, 100*v.Bound, v.Call)
		if v.Call != "ok" && v.Call != "better" {
			code = 1
		}
	}
	tw.Flush()
	for _, d := range diffs {
		fmt.Fprintln(stdout, "differs:", d)
		code = 1
	}
	return code
}
