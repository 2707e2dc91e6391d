package experiments

import (
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestDegradationCurveShape(t *testing.T) {
	m := topology.New10x10()
	cfg := noc.Config{Mesh: m, Width: tech.Width4B, Shortcuts: StaticShortcuts(m, 3)}
	points := DegradationCurve(cfg, traffic.Uniform,
		Options{Cycles: 6000, Rate: 0.008, Seed: 9})

	if len(points) != 4 {
		t.Fatalf("points = %d, want 4 (budget 3 + the fault-free point)", len(points))
	}
	for _, p := range points {
		if !p.Drained {
			t.Fatalf("point killed=%d did not drain", p.Killed)
		}
		if p.AvgLatency <= 0 || p.PostFaultLatency <= 0 || p.Throughput <= 0 {
			t.Errorf("point killed=%d has non-positive metrics: %+v", p.Killed, p)
		}
	}
	// No kills: every band-cycle alive.
	if points[0].Availability != 1 {
		t.Errorf("fault-free availability = %v, want 1", points[0].Availability)
	}
	// Availability falls strictly as more bands die (kills land a quarter
	// of the way in, so each extra dead band costs ~3/4 of a band-run).
	for k := 1; k < len(points); k++ {
		if points[k].Availability >= points[k-1].Availability {
			t.Errorf("availability not decreasing at killed=%d: %v -> %v",
				k, points[k-1].Availability, points[k].Availability)
		}
	}
	// A fully dead overlay cannot beat the intact one on post-fault
	// latency.
	first, last := points[0], points[len(points)-1]
	if last.PostFaultLatency < first.PostFaultLatency {
		t.Errorf("post-fault latency with all bands dead (%v) beats intact overlay (%v)",
			last.PostFaultLatency, first.PostFaultLatency)
	}

	out := RenderDegradation(points)
	if !strings.Contains(out, "killed") || strings.Count(out, "\n") != len(points)+1 {
		t.Errorf("render malformed:\n%s", out)
	}
}
