package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// LoadPoint is one point of a load-latency curve.
type LoadPoint struct {
	Rate       float64 // transactions per component per cycle
	AvgLatency float64 // cycles per flit
	Throughput float64 // ejected flits per cycle
	Saturated  bool    // failed to drain (offered > accepted)
}

// LoadCurve is a latency-versus-offered-load sweep for one design, the
// classic NoC characterization: flat near zero load, rising with
// queueing, asymptotic at saturation. RF-I shortcuts shift the curve
// down (fewer hops) and right (bisection relief).
type LoadCurve struct {
	Design string
	Points []LoadPoint
}

// DefaultLoadRates is the sweep grid.
func DefaultLoadRates() []float64 {
	return []float64{0.002, 0.004, 0.008, 0.012, 0.016, 0.020, 0.026, 0.032}
}

// LoadLatency sweeps injection rate for the given designs under one
// pattern, every (design, rate) point in one plan. Saturated points
// report the (censored) latency measured over the fixed window.
func LoadLatency(m *topology.Mesh, designs []Design, pat traffic.Pattern, rates []float64, opts Options) []LoadCurve {
	opts = opts.WithDefaults()
	if rates == nil {
		rates = DefaultLoadRates()
	}
	var pts []Point // design-major, rate-minor
	for _, d := range designs {
		for _, rate := range rates {
			o := opts
			o.Rate = rate
			pts = append(pts, Point{Design: d, Gen: genSpec(pat.String(), o.WithDefaults())})
		}
	}
	res := newPlan(pts).run(m, opts)
	var out []LoadCurve
	for di, d := range designs {
		c := LoadCurve{Design: d.Name()}
		for ri, rate := range rates {
			r := res[pts[di*len(rates)+ri]]
			c.Points = append(c.Points, LoadPoint{
				Rate:       rate,
				AvgLatency: r.AvgLatency,
				Throughput: r.Stats.Throughput(),
				Saturated:  !r.Drained,
			})
		}
		out = append(out, c)
	}
	return out
}

// SaturationRate returns the highest swept rate that did not saturate
// and kept latency under latencyBound, a robust proxy for saturation
// throughput.
func (c LoadCurve) SaturationRate(latencyBound float64) float64 {
	best := 0.0
	for _, p := range c.Points {
		if !p.Saturated && p.AvgLatency <= latencyBound && p.Rate > best {
			best = p.Rate
		}
	}
	return best
}

// RenderLoadCurves draws the sweep.
func RenderLoadCurves(curves []LoadCurve) string {
	t := stats.NewTable("design", "rate", "latency/flit", "flits/cycle", "saturated")
	for _, c := range curves {
		for _, p := range c.Points {
			sat := ""
			if p.Saturated {
				sat = "yes"
			}
			t.AddRow(c.Design, fmt.Sprintf("%.3f", p.Rate),
				fmt.Sprintf("%.1f", p.AvgLatency),
				fmt.Sprintf("%.2f", p.Throughput), sat)
		}
	}
	return t.String()
}

// LoadCurveDesigns are the standard comparison set at a given width.
func LoadCurveDesigns(w tech.LinkWidth) []Design {
	return []Design{
		{Kind: Baseline, Width: w},
		{Kind: Static, Width: w},
		{Kind: Adaptive, RFRouters: 50, Width: w},
	}
}
