package main

import (
	"fmt"
	"sort"
)

// metric names one reported number. The lists below are the benchmark's
// definition; BENCHMARK.json repeats them with their regression bounds,
// and TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the numbers a user of each workload sees, reported by
// every untraced run. A run's latency tail goes on its facts line, by
// the rule in tail(), because some workloads fit too few ops in a run
// for a fixed high percentile to mean anything. An op is the workload's unit of work: one Summary
// (figures), one 250k-cycle run of the point (long-point), one sweep
// point through the worker pool (sweep-short), one fresh request plus
// its keyed repeat (service).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are reported by every traced run. The times come from the
// point probe, which every workload runs on its own kind of point, so
// they are measured everywhere. Metrics of a layer only some workloads
// reach are shares or counts, and read 0 on the others: that workload
// is the one on which a change to the layer should move nothing.
var perLayer = []metric{
	{"bench.trace_overhead_frac", "fraction", "lower"},
	{"bench.span_coverage_frac", "fraction", "higher"},

	{"experiments.fig7_share", "fraction", "lower"},
	{"experiments.fig8_share", "fraction", "lower"},
	{"experiments.fig9_share", "fraction", "lower"},
	{"experiments.paper_err_mean_pp", "pp", "lower"},
	{"experiments.paper_err_max_pp", "pp", "lower"},
	{"experiments.construct_share", "fraction", "lower"},
	{"experiments.supervise_idle_frac", "fraction", "lower"},
	{"experiments.fingerprint_us", "us", "lower"},
	{"experiments.encode_us", "us", "lower"},

	{"exec.transit_frac", "fraction", "lower"},
	{"exec.spawned", "count", "lower"},
	{"exec.dispatched", "count", "higher"},
	{"exec.crashed", "count", "lower"},

	{"shortcut.select_ms", "ms", "lower"},
	{"shortcut.adaptive_calls", "count", "lower"},
	{"shortcut.static_calls", "count", "lower"},

	{"traffic.profile_share", "fraction", "lower"},
	{"traffic.tick_ns", "ns", "lower"},

	{"noc.new_us", "us", "lower"},
	{"noc.step_ns", "ns", "lower"},
	{"noc.drain_step_ns", "ns", "lower"},
	{"noc.step_share", "fraction", "lower"},
	{"noc.alloc_mb_per_point", "MB", "lower"},
	{"noc.drain_cycles", "cycles", "lower"},
	{"noc.flits_ejected", "count", "higher"},
	{"noc.flit_hops", "count", "lower"},

	{"rfsimd.ttfb_fresh_share", "fraction", "lower"},
	{"rfsimd.ttfb_repeat_share", "fraction", "lower"},
	{"rfsimd.rejected", "count", "lower"},
	{"rfsimd.jobs_attached", "count", "higher"},
	{"rfsimd.points_cached", "count", "higher"},
	{"rfsimd.result_frames", "count", "higher"},
	{"rfsimd.queue_peak", "count", "lower"},

	{"rfclient.posts", "count", "higher"},
	{"rfclient.resumes", "count", "lower"},
	{"rfclient.backoffs", "count", "lower"},
}

// value is one metric as printed in the run record.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the run's last line of output.
type record struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill renders every metric of list from got, reading absent ones as 0.
// A computed name the list does not define is a bug in the benchmark.
func fill(list []metric, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(list))
	for _, m := range list {
		if err := checkMetricName(m.Name); err != nil {
			return nil, err
		}
		out[m.Name] = value{Value: got[m.Name], Unit: m.Unit}
	}
	var extra []string
	for name := range got {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("computed metrics missing from the catalogue: %v", extra)
	}
	return out, nil
}
