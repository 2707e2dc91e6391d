package experiments

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ScalingRow is one mesh size in the scaling study.
type ScalingRow struct {
	Side    int // mesh is Side x Side
	Routers int
	Cores   int

	// Ratios versus the same-size 16 B baseline.
	Baseline4BLatency float64
	Adaptive4BLatency float64
	Adaptive4BPower   float64
	Adaptive4BArea    float64

	// MeanHops on the 16 B baseline, showing why RF-I matters more as
	// meshes grow.
	MeanHops float64
}

// ScalingStudy generalizes the paper's headline comparison (16 B baseline
// vs adaptive 4 B overlay) across mesh sizes, the scaling trajectory the
// paper's introduction motivates ("as CMPs scale to tens or hundreds of
// cores"). The RF-I aggregate stays fixed at 256 B/cycle (16 shortcuts),
// so the study also shows the fixed overlay budget diluting on larger
// meshes. Uniform traffic at iso per-link load; access points are the
// density-2 stagger.
func ScalingStudy(sizes []int, opts Options) []ScalingRow {
	opts = opts.WithDefaults()
	out := make([]ScalingRow, len(sizes))
	forEach(Workers, len(sizes), func(i int) {
		side := sizes[i]
		m := topology.New(side, side)
		row := ScalingRow{Side: side, Routers: m.N(), Cores: len(m.Cores())}

		// Iso-load scaling: uniform traffic's per-link load grows with the
		// mesh side (more components and longer paths over a bisection
		// that only grows linearly), so the per-component rate is scaled
		// by 10/side to keep link utilization comparable across sizes.
		rate := opts.Rate * 10.0 / float64(side)
		gen := func() traffic.Generator {
			return traffic.NewProbabilistic(m, traffic.Uniform, rate, opts.Seed)
		}
		b16 := Run(noc.Config{Mesh: m, Width: tech.Width16B}, gen(), opts)
		b4 := Run(noc.Config{Mesh: m, Width: tech.Width4B}, gen(), opts)

		rf := m.RFStagger(2)
		freq := traffic.FrequencyMatrix(gen(), m.N(), opts.ProfileCycles)
		edges := AdaptiveShortcuts(m, rf, freq, tech.ShortcutBudget)
		a4 := Run(noc.Config{
			Mesh: m, Width: tech.Width4B, Shortcuts: edges, RFEnabled: rf,
		}, gen(), opts)

		row.Baseline4BLatency = b4.AvgLatency / b16.AvgLatency
		row.Adaptive4BLatency = a4.AvgLatency / b16.AvgLatency
		row.Adaptive4BPower = a4.PowerW / b16.PowerW
		row.Adaptive4BArea = a4.AreaMM2 / b16.AreaMM2
		row.MeanHops = b16.Stats.AvgHops()
		out[i] = row
	})
	return out
}

// RenderScaling draws the scaling table.
func RenderScaling(rows []ScalingRow) string {
	t := stats.NewTable("mesh", "cores", "mean hops",
		"4B lat", "adaptive-4B lat", "adaptive-4B pow", "adaptive-4B area")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Side, r.Side),
			fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.2f", r.MeanHops),
			fmt.Sprintf("%.3f", r.Baseline4BLatency),
			fmt.Sprintf("%.3f", r.Adaptive4BLatency),
			fmt.Sprintf("%.3f", r.Adaptive4BPower),
			fmt.Sprintf("%.3f", r.Adaptive4BArea))
	}
	return t.String()
}
