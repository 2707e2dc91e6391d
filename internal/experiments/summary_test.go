package experiments

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// TestSummaryMatchesFigures checks that Summary's one pass over the union
// of the Figure 7 and 8 designs yields exactly the means Fig7 and Fig8
// compute on their own: its 14 claims from those figures must equal them
// bit for bit.
func TestSummaryMatchesFigures(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 500, ProfileCycles: 2000}
	claims := Summary(m, opts)
	means7, means8 := Fig7(m, opts).Means(), Fig8(m, opts).Means()
	// Fig8Designs order: (baseline, static, adaptive50) x (16, 8, 4 B).
	want := []float64{
		means7[0].Latency, means7[0].Power,
		means7[1].Latency, means7[1].Power,
		means7[2].Latency, means7[2].Power,
		means8[3].Power, means8[3].Latency,
		means8[6].Power, means8[6].Latency,
		means8[7].Power, means8[7].Latency,
		means8[8].Power, means8[8].Latency,
	}
	for i, w := range want {
		if got := claims[i].Measured; math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("claim %q = %v, want the figure's %v", claims[i].Name, got, w)
		}
	}
}
