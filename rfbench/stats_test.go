package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail is the highest percentile with at least ten samples beyond
// it, reported with the sample count it rests on.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{n: 19, ok: false},                       // p50 of 19 leaves 9 beyond
		{n: 20, pct: 50, value: 10, ok: true},    // p50 leaves exactly 10
		{n: 39, pct: 50, value: 20, ok: true},    // p75 would leave 9
		{n: 40, pct: 75, value: 30, ok: true},    // p75 leaves 10
		{n: 100, pct: 90, value: 90, ok: true},   // p95 would leave 5
		{n: 200, pct: 95, value: 190, ok: true},  // p99 would leave 2
		{n: 1000, pct: 99, value: 990, ok: true}, // p99.9 would leave 1
		{n: 10000, pct: 99.9, value: 9990, ok: true},
	} {
		pct, v, n, ok := tail(seq(c.n))
		if ok != c.ok || n != c.n || (ok && (pct != c.pct || v != c.value)) {
			t.Errorf("tail of %d samples = p%v %v (n=%d, ok=%v), want p%v %v (ok=%v)",
				c.n, pct, v, n, ok, c.pct, c.value, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {0, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 4, 9, 16, 25, 36, 49}, [3]float64{4, 16, 36}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestCheckMetricName(t *testing.T) {
	for _, ok := range []string{"setup_s", "noc.step_ns", "a-b.c_d", "9lives"} {
		if err := checkMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	long := "x"
	for len(long) <= 64 {
		long += "x"
	}
	for _, bad := range []string{"", "has space", "slash/no", "_leading", ".leading", "ünicode", "tab\t", long} {
		if err := checkMetricName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
