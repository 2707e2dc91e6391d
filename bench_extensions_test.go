package rfnoc_test

// Benchmarks for the extension features: adaptive routing (the HPCA-2008
// contention study), the load-curve, routing, VC and scaling studies,
// the coherence workload and trace replay.

import (
	"bytes"
	"testing"

	rfnoc "repro"
	"repro/internal/experiments"
	"repro/internal/traffic"
)

// BenchmarkAblationAdaptiveRouting compares deterministic table routing
// against minimal-adaptive routing on a convergecast pattern (a single
// destination router) at 4 B, where XY funnels everything through two
// inbound links.
func BenchmarkAblationAdaptiveRouting(b *testing.B) {
	m := rfnoc.NewMesh()
	run := func(adaptive bool) float64 {
		cfg := rfnoc.BaselineConfig(m, rfnoc.Width4B)
		cfg.AdaptiveRouting = adaptive
		n := rfnoc.NewNetwork(cfg)
		dst := m.ID(5, 5)
		for cyc := 0; cyc < 4000; cyc++ {
			if cyc%4 == 0 {
				src := (cyc * 37) % 100
				if src != dst {
					n.Inject(rfnoc.Message{Src: src, Dst: dst, Class: rfnoc.Data, Inject: n.Now()})
				}
			}
			n.Step()
		}
		if !n.Drain(2_000_000) {
			b.Fatal("no drain")
		}
		s := n.Stats()
		return s.AvgFlitLatency()
	}
	for i := 0; i < b.N; i++ {
		det, ad := run(false), run(true)
		if ad >= det {
			b.Fatalf("adaptive (%.1f) should beat deterministic (%.1f)", ad, det)
		}
		b.ReportMetric(det/ad, "speedup")
	}
}

// BenchmarkLoadCurve regenerates the load-latency sweep for the 4B
// designs.
func BenchmarkLoadCurve(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		curves := experiments.LoadLatency(m,
			experiments.LoadCurveDesigns(rfnoc.Width4B), traffic.Uniform,
			[]float64{0.004, 0.012, 0.020}, experiments.Options{Cycles: 4000})
		if len(curves) != 3 {
			b.Fatal("want 3 curves")
		}
	}
}

// BenchmarkRoutingStudy regenerates the XY-vs-adaptive permutation
// comparison.
func BenchmarkRoutingStudy(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		rows := experiments.RoutingStudy(m, experiments.Options{Cycles: 3000})
		if len(rows) != 4 {
			b.Fatal("want 4 patterns")
		}
	}
}

// BenchmarkAblationVCConfig sweeps VC count and buffer depth.
func BenchmarkAblationVCConfig(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		res := experiments.AblationVCConfig(m, []int{2, 8}, []int{2, 4}, experiments.Options{Cycles: 3000})
		if len(res) != 4 {
			b.Fatal("want 4 points")
		}
	}
}

// BenchmarkScalingStudy regenerates the mesh-size scaling comparison.
func BenchmarkScalingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := rfnoc.ScalingStudy([]int{8, 12}, rfnoc.Options{Cycles: 4000, ProfileCycles: 4000})
		if len(rows) != 2 {
			b.Fatal("want 2 rows")
		}
	}
}

// BenchmarkCoherenceWorkload measures the directory-protocol generator
// driving RF multicast end to end.
func BenchmarkCoherenceWorkload(b *testing.B) {
	m := rfnoc.NewMesh()
	for i := 0; i < b.N; i++ {
		cfg := rfnoc.BaselineConfig(m, rfnoc.Width16B)
		cfg.Multicast = rfnoc.MulticastRF
		cfg.RFEnabled = m.RFPlacement(50)
		n := rfnoc.NewNetwork(cfg)
		p := rfnoc.NewCoherenceTraffic(m, rfnoc.CoherenceWorkload{}, 7)
		for now := int64(0); now < 5000; now++ {
			p.Tick(now, n.Inject)
			n.Step()
		}
		if !n.Drain(500_000) {
			b.Fatal("no drain")
		}
		if n.Stats().MulticastDeliveries == 0 {
			b.Fatal("no multicast work")
		}
	}
}

// BenchmarkTraceReplay measures trace capture and replay round-trip
// throughput (messages per second through the codec).
func BenchmarkTraceReplay(b *testing.B) {
	m := rfnoc.NewMesh()
	gen := traffic.NewMulticastAugment(m,
		traffic.NewProbabilistic(m, traffic.Hotspot2, 0, 9), 0.05, 20, 9)
	var buf bytes.Buffer
	count, err := traffic.WriteTrace(&buf, gen, 20000)
	if err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := traffic.ReadTrace(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if rp.Len() != count {
			b.Fatal("record count mismatch")
		}
	}
}
