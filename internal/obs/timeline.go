package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/noc"
	"repro/internal/topology"
)

// LinkTimeline is an Observer that samples per-port link occupancy in
// fixed cycle windows: for every router output port (the four mesh
// directions, the local NI port, and the RF shortcut band) it records
// how many flits departed during each window. The result is a
// congestion timeline — which links saturate, when, and how much load
// the shortcut overlay absorbs — exportable as CSV or JSON.
type LinkTimeline struct {
	noc.BaseObserver

	// Window is the sample window in cycles (fixed at construction).
	Window int64

	cur     [][noc.NumPorts]int64
	start   int64
	samples []WindowSample
}

// WindowSample is one completed window: Flits[r][p] flits left router r
// through port p during [Start, End).
type WindowSample struct {
	Start int64     `json:"start"`
	End   int64     `json:"end"`
	Flits [][]int64 `json:"flits"`
}

// NewLinkTimeline builds a timeline sampling every window cycles
// (default 1000 if window <= 0).
func NewLinkTimeline(window int64) *LinkTimeline {
	if window <= 0 {
		window = 1000
	}
	return &LinkTimeline{Window: window}
}

// FlitSent implements noc.Observer.
func (t *LinkTimeline) FlitSent(router, outPort int, _ int64) {
	if router >= len(t.cur) {
		grown := make([][noc.NumPorts]int64, router+1)
		copy(grown, t.cur)
		t.cur = grown
	}
	t.cur[router][outPort]++
}

// CycleEnd implements noc.Observer: closes the window on its boundary.
func (t *LinkTimeline) CycleEnd(n *noc.Network) {
	if now := n.Now(); now-t.start >= t.Window {
		t.flush(now)
	}
}

// flush closes the current window at cycle end (exclusive).
func (t *LinkTimeline) flush(end int64) {
	if end == t.start {
		return
	}
	s := WindowSample{Start: t.start, End: end, Flits: make([][]int64, len(t.cur))}
	for r := range t.cur {
		s.Flits[r] = append([]int64(nil), t.cur[r][:]...)
		t.cur[r] = [noc.NumPorts]int64{}
	}
	t.samples = append(t.samples, s)
	t.start = end
}

// Samples returns the completed windows (excluding the in-progress one).
func (t *LinkTimeline) Samples() []WindowSample { return t.samples }

// Utilization returns the busy fraction of the link leaving router r
// through port p during sample s (flits per cycle; 1.0 saturates a mesh
// link).
func (s WindowSample) Utilization(r, p int) float64 {
	if r >= len(s.Flits) || s.End == s.Start {
		return 0
	}
	return float64(s.Flits[r][p]) / float64(s.End-s.Start)
}

// Total flushes the in-progress window at atCycle and returns the whole
// run as one sample: every window's flits summed over [0, atCycle).
func (t *LinkTimeline) Total(atCycle int64) WindowSample {
	t.flush(atCycle)
	s := WindowSample{End: atCycle, Flits: make([][]int64, len(t.cur))}
	for r := range s.Flits {
		s.Flits[r] = make([]int64, noc.NumPorts)
	}
	for _, w := range t.samples {
		for r, flits := range w.Flits {
			for p, f := range flits {
				s.Flits[r][p] += f
			}
		}
	}
	return s
}

// heatRunes grade load from idle to saturated.
var heatRunes = []rune(" .:-=+*#%@")

// Heatmap renders s's mesh-link load as a W x H character grid: each
// cell shows the router's aggregate mesh-link output load, graded from
// ' ' (idle) through '@' (all four links saturated). Row 0 of the mesh
// is printed at the bottom, matching the paper's floorplan figures.
func (s WindowSample) Heatmap(m *topology.Mesh) string {
	var b strings.Builder
	for y := m.H - 1; y >= 0; y-- {
		for x := 0; x < m.W; x++ {
			var load float64 // flits per cycle over the router's mesh ports
			if r := m.ID(x, y); r < len(s.Flits) && s.End > s.Start {
				var total int64
				for p := noc.PortNorth; p <= noc.PortWest; p++ {
					total += s.Flits[r][p]
				}
				load = float64(total) / float64(s.End-s.Start)
			}
			idx := int(load / 4.0 * float64(len(heatRunes)))
			if idx >= len(heatRunes) {
				idx = len(heatRunes) - 1
			}
			b.WriteRune(heatRunes[idx])
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HottestLinks lists s's k most-loaded directed links as human-readable
// strings ("(7,0)->W 0.830 flits/cycle"), most loaded first.
func (s WindowSample) HottestLinks(m *topology.Mesh, k int) []string {
	type item struct {
		r, p int
		v    float64
	}
	var items []item
	for r := range s.Flits {
		for p := 0; p < noc.NumPorts; p++ {
			if v := s.Utilization(r, p); v > 0 {
				items = append(items, item{r, p, v})
			}
		}
	}
	// Partial selection sort for the top k.
	k = min(k, len(items))
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(items); j++ {
			if items[j].v > items[best].v {
				best = j
			}
		}
		items[i], items[best] = items[best], items[i]
	}
	out := make([]string, 0, k)
	for _, it := range items[:k] {
		c := m.Coord(it.r)
		out = append(out, fmt.Sprintf("(%d,%d)->%s %.3f flits/cycle",
			c.X, c.Y, noc.PortName(it.p), it.v))
	}
	return out
}

// WriteCSV exports the timeline as tidy rows — window_start,
// window_end, router, port, flits, utilization — omitting idle links.
// The in-progress window is flushed first using atCycle as its end.
func (t *LinkTimeline) WriteCSV(w io.Writer, atCycle int64) error {
	t.flush(atCycle)
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"window_start", "window_end", "router", "port", "flits", "utilization"}); err != nil {
		return err
	}
	for _, s := range t.samples {
		for r := range s.Flits {
			for p := 0; p < noc.NumPorts; p++ {
				if s.Flits[r][p] == 0 {
					continue
				}
				if err := cw.Write([]string{
					strconv.FormatInt(s.Start, 10),
					strconv.FormatInt(s.End, 10),
					strconv.Itoa(r),
					noc.PortName(p),
					strconv.FormatInt(s.Flits[r][p], 10),
					strconv.FormatFloat(s.Utilization(r, p), 'f', 4, 64),
				}); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// timelineJSON is the JSON export envelope.
type timelineJSON struct {
	Window int64          `json:"window_cycles"`
	Ports  []string       `json:"ports"`
	Sample []WindowSample `json:"samples"`
}

// WriteJSON exports the timeline (all windows, including zero entries)
// as one JSON document. The in-progress window is flushed first using
// atCycle as its end.
func (t *LinkTimeline) WriteJSON(w io.Writer, atCycle int64) error {
	t.flush(atCycle)
	ports := make([]string, noc.NumPorts)
	for p := range ports {
		ports[p] = noc.PortName(p)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(timelineJSON{Window: t.Window, Ports: ports, Sample: t.samples})
}

// PeakUtilization returns the most-loaded (router, port, window) triple
// seen so far and its utilization, for quick congestion summaries.
func (t *LinkTimeline) PeakUtilization() (router, port int, window WindowSample, util float64) {
	for _, s := range t.samples {
		for r := range s.Flits {
			for p := 0; p < noc.NumPorts; p++ {
				if u := s.Utilization(r, p); u > util {
					router, port, window, util = r, p, s, u
				}
			}
		}
	}
	return router, port, window, util
}

// String summarizes the timeline.
func (t *LinkTimeline) String() string {
	r, p, s, u := t.PeakUtilization()
	return fmt.Sprintf("%d windows of %d cycles; peak link (%d).%s %.3f flits/cycle in [%d,%d)",
		len(t.samples), t.Window, r, noc.PortName(p), u, s.Start, s.End)
}
