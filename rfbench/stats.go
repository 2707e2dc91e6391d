package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// sortedMS returns the durations in milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile of ascending xs (0 when
// xs is empty): the smallest sample with at least p% of the samples at
// or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p*n/100 from pushing an exact
	// rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates tail() chooses from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports a timing's tail the way the benchmark's records do: the
// highest percentile that still has at least ten samples beyond it,
// its value, and the sample count it rests on. ok is false when there
// are too few samples for any candidate (fewer than 20).
func tail(xs []float64) (pct, value float64, n int, ok bool) {
	n = len(xs)
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			return p, percentile(xs, p), n, true
		}
	}
	return 0, 0, n, false
}

// median of ascending xs (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so spreads computed here agree with the
// ones computed from the same run records in Python. xs must be
// ascending and hold at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Clamp before taking delta, as Python does: at the ends this
		// extrapolates from the two outermost values.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetricName rejects a name the run records cannot carry.
func checkMetricName(name string) error {
	if len(name) == 0 || len(name) > 64 || !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q must be 1-64 characters of letters, digits, '_', '.' and '-'", name)
	}
	if c := name[0]; !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
		return fmt.Errorf("metric name %q must start with a letter or digit", name)
	}
	return nil
}
