// Package experiments assembles design points and regenerates every table
// and figure of the paper's evaluation (Section 5): Figure 1 (traffic by
// manhattan distance), Figure 7 (number of RF-enabled routers), Figure 8
// (mesh bandwidth reduction), Table 2 (area), Figure 9 (multicast), and
// Figures 10a/10b (unified power-performance comparisons), plus the
// application-trace summary and the headline-claims digest.
package experiments

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// DesignKind distinguishes how (and whether) shortcuts are provisioned.
type DesignKind int

const (
	// Baseline is the plain mesh with no overlay.
	Baseline DesignKind = iota
	// Static uses the fixed architecture-specific shortcut set chosen at
	// design time by the Figure 3(b) max-cost heuristic.
	Static
	// WireStatic is the same static shortcut set implemented in buffered
	// RC wire rather than RF-I (Figure 10a's "Mesh Wire Shortcuts").
	WireStatic
	// Adaptive re-selects application-specific shortcuts per workload
	// from the RF-enabled router set (shortcut.Adaptive).
	Adaptive
)

// String implements fmt.Stringer.
func (k DesignKind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case Static:
		return "static"
	case WireStatic:
		return "wire-static"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("DesignKind(%d)", int(k))
}

// ParseDesignKind is the inverse of String for the four design names.
func ParseDesignKind(name string) (DesignKind, error) {
	for k := Baseline; k <= Adaptive; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q (want baseline, static, wire-static or adaptive)", name)
}

// Design names one network design point.
type Design struct {
	Kind  DesignKind
	Width tech.LinkWidth

	// RFRouters is the access-point count for Adaptive designs
	// (25, 50 or 100).
	RFRouters int

	// Multicast enables a delivery mechanism for multicast messages.
	Multicast noc.MulticastMode

	// ShortcutWidthBytes overrides the 16 B shortcut width for the
	// width-ablation study; the budget scales to keep the 256 B aggregate.
	ShortcutWidthBytes int
}

// Name renders a compact design label ("adaptive50-4B").
func (d Design) Name() string {
	s := d.Kind.String()
	if d.Kind == Adaptive {
		s = fmt.Sprintf("%s%d", s, d.RFRouters)
	}
	s = fmt.Sprintf("%s-%s", s, d.Width)
	switch d.Multicast {
	case noc.MulticastVCT:
		s += "+vct"
	case noc.MulticastRF:
		s += "+mc"
	}
	return s
}

// budget is the design's shortcut count. Only an adaptive design with
// RF multicast (the paper's MC+SC) gives a band to multicast; a static
// set stays design-time fixed at the full budget.
func (d Design) budget() int {
	return tech.ShortcutBudgetFor(d.ShortcutWidthBytes, d.Kind == Adaptive && d.Multicast == noc.MulticastRF)
}

// Build materializes the design into a simulator configuration. For
// Adaptive designs the workload generator `profile` (a fresh instance of
// the workload, same seed as the measured run) is dry-run to collect the
// inter-router frequency matrix that drives application-specific
// shortcut selection; pass nil for non-adaptive designs.
func Build(m *topology.Mesh, d Design, profile traffic.Generator, profileCycles int64) noc.Config {
	cfg := noc.Config{Mesh: m, Width: d.Width, Multicast: d.Multicast}
	if d.ShortcutWidthBytes > 0 {
		cfg.ShortcutWidthBytes = d.ShortcutWidthBytes
	}
	switch d.Kind {
	case Baseline:
		// No shortcut overlay; an "MC only" design still provisions RF
		// receivers at the access points (the paper's MC configuration
		// dedicates one band to multicast with all 50 receivers tuned).
		if d.Multicast == noc.MulticastRF && d.RFRouters > 0 {
			cfg.RFEnabled = m.RFPlacement(d.RFRouters)
		}
	case Static, WireStatic:
		cfg.Shortcuts = StaticShortcuts(m, d.budget())
		cfg.WireShortcuts = d.Kind == WireStatic
	case Adaptive:
		if d.RFRouters == 0 {
			d.RFRouters = 50
		}
		cfg.RFEnabled = m.RFPlacement(d.RFRouters)
		if profile == nil {
			panic("experiments: adaptive design needs a workload profile")
		}
		if profileCycles <= 0 {
			profileCycles = 20000
		}
		freq := traffic.FrequencyMatrix(profile, m.N(), profileCycles)
		cfg.Shortcuts = AdaptiveShortcuts(m, cfg.RFEnabled, freq, d.budget())
	default:
		panic("experiments: unknown design kind")
	}
	// Multicast transmitters sit at the cluster-central banks; their Tx
	// hardware is accounted by Config.RFPortsAt whether or not the bank is
	// in the access-point placement, so RFEnabled stays the placement set
	// (and the receiver count matches the paper: all 50 for MC, 35 for
	// MC+SC).
	return cfg
}

// StaticShortcuts returns the architecture-specific shortcut set
// (Section 3.2.1, Figure 3(b) heuristic).
func StaticShortcuts(m *topology.Mesh, budget int) []shortcut.Edge {
	return shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget:   budget,
		Eligible: m.ShortcutEligible,
	})
}

// AdaptiveShortcuts returns the application-specific shortcut set
// (Section 3.2.2) restricted to RF-enabled routers; see shortcut.Adaptive.
func AdaptiveShortcuts(m *topology.Mesh, rfEnabled []int, freq [][]int64, budget int) []shortcut.Edge {
	return shortcut.Adaptive(m, rfEnabled, freq, budget)
}
