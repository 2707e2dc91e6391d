package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV exporters so the regenerated figures can be plotted directly.
// Each writer emits one tidy table: a header row then one row per
// (workload, design) observation.

// WriteFig7CSV exports a Fig7Result (also used for Figure 8) as
// trace,design,norm_latency,norm_power rows.
func WriteFig7CSV(w io.Writer, r Fig7Result) error {
	return writeMatrixCSV(w, "design", r.Traces, r.Designs, r.Points)
}

// WriteFig9CSV exports the multicast study.
func WriteFig9CSV(w io.Writer, r Fig9Result) error {
	return writeMatrixCSV(w, "config", r.Traces, r.Configs, r.Points)
}

// writeMatrixCSV exports a trace x column matrix, points[column][trace],
// as trace,<column>,norm_latency,norm_power rows, column by column.
func writeMatrixCSV(w io.Writer, column string, traces, columns []string, points [][]NormPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"trace", column, "norm_latency", "norm_power"}); err != nil {
		return err
	}
	for ci, c := range columns {
		for ti, tr := range traces {
			p := points[ci][ti]
			if err := cw.Write([]string{
				tr, c, formatF(p.Latency), formatF(p.Power),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig10CSV exports power-performance lines.
func WriteFig10CSV(w io.Writer, lines []Fig10Line) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"architecture", "width", "norm_perf", "norm_power"}); err != nil {
		return err
	}
	for _, l := range lines {
		for i := range l.Widths {
			if err := cw.Write([]string{
				l.Name, l.Widths[i], formatF(l.Perf[i]), formatF(l.Power[i]),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable2CSV exports the area table.
func WriteTable2CSV(w io.Writer, rows []Table2Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "router_mm2", "link_mm2", "rfi_mm2", "total_mm2"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Design, formatF(r.Router), formatF(r.Link), formatF(r.RFI), formatF(r.Total),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig1CSV exports the distance histograms as app,distance,messages.
func WriteFig1CSV(w io.Writer, r Fig1Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "distance", "messages"}); err != nil {
		return err
	}
	for i, app := range r.Apps {
		for d := 1; d < len(r.Histograms[i]); d++ {
			if err := cw.Write([]string{
				app, strconv.Itoa(d), strconv.FormatInt(r.Histograms[i][d], 10),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAppStudyCSV exports the application comparison.
func WriteAppStudyCSV(w io.Writer, rs []AppResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "norm_latency", "norm_power"}); err != nil {
		return err
	}
	for _, r := range rs {
		if err := cw.Write([]string{r.App, formatF(r.Latency), formatF(r.Power)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSummaryCSV exports the headline-claims ledger.
func WriteSummaryCSV(w io.Writer, claims []Claim) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"claim", "paper", "measured", "delta_pp"}); err != nil {
		return err
	}
	for _, c := range claims {
		if err := cw.Write([]string{
			c.Name, formatF(c.Paper), formatF(c.Measured), formatF(c.Delta()),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string {
	return fmt.Sprintf("%.4f", v)
}
