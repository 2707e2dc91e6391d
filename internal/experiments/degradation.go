package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// This file measures graceful degradation: how the RF-I design's latency
// advantage erodes as shortcut bands fail one by one, until — with every
// band dead — it converges to the pure-mesh baseline. The curve is the
// robustness counterpart of Figure 7: instead of asking how much RF-I
// silicon buys, it asks how much of the win each surviving band holds up.

// DegradationPoint is the measurement with k shortcut bands killed.
type DegradationPoint struct {
	Killed int

	// AvgLatency is the whole-run per-flit latency (transient included).
	AvgLatency float64

	// PostFaultLatency is the mean packet latency of traffic injected
	// after the last failure — the steady degraded state. With zero
	// kills it equals the overall packet latency.
	PostFaultLatency float64

	// Throughput is accepted traffic in ejected flits per cycle.
	Throughput float64

	// Availability is the fraction of band-cycles alive (obs.FaultRecorder).
	Availability float64

	Reroutes int64
	Drained  bool
}

// DegradationCurve kills k = 0..B of cfg's shortcut bands a quarter of
// the way into the run (all at once, no replanning) and measures the
// latency that survives. The last point runs on a fully dead overlay and
// should sit at the pure-mesh baseline's latency.
func DegradationCurve(cfg noc.Config, pat traffic.Pattern, opts Options) []DegradationPoint {
	opts = opts.WithDefaults()
	m := cfg.Mesh
	killAt := opts.Cycles / 4
	points := make([]DegradationPoint, len(cfg.Shortcuts)+1)
	forEach(len(points), func(k int) {
		var sched fault.Schedule
		for i := 0; i < k; i++ {
			sched = append(sched, fault.Event{Cycle: killAt, Kind: fault.KillBand, A: i})
		}
		inj := fault.NewInjector(sched)
		rec := obs.NewFaultRecorder()
		gen := traffic.NewProbabilistic(m, pat, opts.Rate, opts.Seed)
		r := RunObserved(cfg, gen, opts, inj, rec)
		p := DegradationPoint{
			Killed:       k,
			AvgLatency:   r.Stats.AvgFlitLatency(),
			Throughput:   r.Stats.Throughput(),
			Availability: rec.Availability(),
			Reroutes:     r.Stats.DegradedReroutes,
			Drained:      r.Drained,
		}
		if _, post, _, ok := rec.LatencyDelta(); ok {
			p.PostFaultLatency = post
		} else {
			p.PostFaultLatency = r.Stats.AvgPacketLatency()
		}
		points[k] = p
	})
	return points
}

// RenderDegradation renders the curve as an aligned table.
func RenderDegradation(points []DegradationPoint) string {
	var b strings.Builder
	b.WriteString("killed  avg-lat/flit  post-fault-lat  throughput  availability  reroutes\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d  %12.2f  %14.2f  %10.2f  %12.4f  %8d\n",
			p.Killed, p.AvgLatency, p.PostFaultLatency, p.Throughput, p.Availability, p.Reroutes)
	}
	return b.String()
}
