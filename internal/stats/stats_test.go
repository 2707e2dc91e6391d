package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMeanRatios([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := GeoMeanRatios([]float64{1, 1, 1}); got != 1 {
		t.Errorf("geomean of ones = %v", got)
	}
	if GeoMeanRatios(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive ratio")
		}
	}()
	GeoMeanRatios([]float64{1, 0})
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", "1.0")
	tab.AddRow("b", "22.5", "dropped-extra-cell")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header, sep, 2 rows)", len(lines))
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "alpha") {
		t.Errorf("table content wrong:\n%s", out)
	}
	if strings.Contains(out, "dropped") {
		t.Error("extra cell should be dropped")
	}
	// Columns align: all lines equal length.
	for _, l := range lines[1:] {
		if len(l) > len(lines[0])+2 {
			t.Errorf("misaligned line %q", l)
		}
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram([]string{"a", "bb"}, []int64{10, 5}, 20)
	if !strings.Contains(out, "####################") {
		t.Errorf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "##########") {
		t.Errorf("half bar missing:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	Histogram([]string{"a"}, []int64{1, 2}, 10)
}

func TestHistogramAllZeros(t *testing.T) {
	out := Histogram([]string{"x"}, []int64{0}, 10)
	if !strings.Contains(out, "0") {
		t.Errorf("zero histogram should still render: %q", out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.679); got != "-32.1%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(1.24); got != "+24.0%" {
		t.Errorf("Pct = %q", got)
	}
}

// Property: geometric mean of ratios lies between min and max.
func TestPropertyGeoMeanBounds(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a)/32 + 0.1, float64(b)/32 + 0.1, float64(c)/32 + 0.1}
		g := GeoMeanRatios(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
