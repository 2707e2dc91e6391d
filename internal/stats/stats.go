// Package stats provides the small numeric and rendering helpers the
// experiment harness uses: means, normalization against a baseline, and
// fixed-width text tables/histograms for terminal output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMeanRatios returns the geometric mean of xs, the right average for
// normalized ratios. Panics on non-positive entries.
func GeoMeanRatios(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic("stats: non-positive ratio")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Table renders a fixed-width text table with a header row.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	w := make([]int, len(t.header))
	for i, h := range t.header {
		w[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Histogram renders counts as a labeled ASCII bar chart, scaled to
// maxWidth characters.
func Histogram(labels []string, counts []int64, maxWidth int) string {
	if len(labels) != len(counts) {
		panic("stats: labels/counts length mismatch")
	}
	var max int64 = 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	lw := 0
	for _, l := range labels {
		if len(l) > lw {
			lw = len(l)
		}
	}
	var b strings.Builder
	for i, c := range counts {
		n := int(c * int64(maxWidth) / max)
		fmt.Fprintf(&b, "%-*s |%s %d\n", lw, labels[i], strings.Repeat("#", n), c)
	}
	return b.String()
}

// Pct formats a ratio as a signed percentage delta versus 1.0
// ("-32.1%" for 0.679).
func Pct(ratio float64) string {
	return fmt.Sprintf("%+.1f%%", (ratio-1)*100)
}
