package noc

import (
	"fmt"
	"strings"
)

// This file adds per-link activity tracking: flits crossing every
// directed inter-router link, RF shortcut band, and local port. The
// counters drive congestion analysis (which links saturate around a
// hotspot, how much load the overlay absorbs) and the text heatmap used
// by cmd/rfsim.

// LinkUse reports the flits carried by each output port of each router.
type LinkUse struct {
	// Flits[r][p] counts flits leaving router r through port p.
	Flits [][]int64
	// Cycles is the observation window.
	Cycles int64
}

// LinkUse returns a snapshot of per-link activity since construction.
func (n *Network) LinkUse() LinkUse {
	out := LinkUse{Flits: make([][]int64, len(n.routers)), Cycles: n.now}
	for r := range n.routers {
		out.Flits[r] = append([]int64(nil), n.linkUse[r][:]...)
	}
	return out
}

// Utilization returns the busy fraction of the directed link leaving
// router r through port p (flits per cycle; 1.0 is saturated for mesh
// links).
func (u LinkUse) Utilization(r, p int) float64 {
	if u.Cycles == 0 {
		return 0
	}
	return float64(u.Flits[r][p]) / float64(u.Cycles)
}

// RouterThroughput returns total flits per cycle leaving router r on its
// mesh ports.
func (u LinkUse) RouterThroughput(r int) float64 {
	var total int64
	for p := portNorth; p <= portWest; p++ {
		total += u.Flits[r][p]
	}
	if u.Cycles == 0 {
		return 0
	}
	return float64(total) / float64(u.Cycles)
}

// heatRunes grade load from idle to saturated.
var heatRunes = []rune(" .:-=+*#%@")

// Heatmap renders mesh-link load as a W x H character grid: each cell
// shows the router's aggregate mesh-link output load, graded from ' '
// (idle) through '@' (all four links saturated). Row 0 of the mesh is
// printed at the bottom, matching the paper's floorplan figures.
func (n *Network) Heatmap() string {
	u := n.LinkUse()
	m := n.cfg.Mesh
	var b strings.Builder
	for y := m.H - 1; y >= 0; y-- {
		for x := 0; x < m.W; x++ {
			t := u.RouterThroughput(m.ID(x, y)) / 4.0 // 4 mesh ports
			idx := int(t * float64(len(heatRunes)))
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

// HottestLinks lists the k most-loaded directed links as human-readable
// strings ("(7,0)->W 0.83 flits/cycle"), most loaded first.
func (n *Network) HottestLinks(k int) []string {
	u := n.LinkUse()
	m := n.cfg.Mesh
	type item struct {
		r, p int
		v    float64
	}
	var items []item
	for r := range u.Flits {
		for p := 0; p < numPorts; p++ {
			if v := u.Utilization(r, p); v > 0 {
				items = append(items, item{r, p, v})
			}
		}
	}
	// Partial selection sort for the top k.
	if k > len(items) {
		k = len(items)
	}
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
			c.X, c.Y, portName(it.p), it.v))
	}
	return out
}
