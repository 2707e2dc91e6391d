// Package core implements the paper's primary contribution as a single
// component: the adaptive, reconfigurable RF-I network-on-chip. A
// Controller owns the RF-enabled router placement and walks the paper's
// three-step reconfiguration for each application:
//
//  1. Shortcut Selection — application-specific shortcuts are chosen
//     from the profiled communication-frequency matrix (Section 3.2.2);
//  2. Transmitter/Receiver Tuning — the frequency-band plan assigns each
//     selected shortcut (and optionally the multicast channel) a band
//     and retunes the access-point mixers (internal/rfi);
//  3. Routing Table Updates — a simulator configuration with rebuilt
//     shortest-path tables, charged the paper's parallel-update cost
//     (99 cycles on the 100-router mesh, overlapped with the context
//     switch).
//
// The Controller accumulates reconfiguration statistics (plans built,
// mixers retuned, table-update cycles) so studies can charge the
// adaptivity overhead explicitly.
package core

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/rfi"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Controller manages the adaptive RF-I overlay for one CMP.
type Controller struct {
	mesh      *topology.Mesh
	rfEnabled []int
	width     tech.LinkWidth

	// Multicast, when true, reserves one band for the broadcast channel
	// and reduces the shortcut budget accordingly (the paper's MC+SC).
	Multicast bool

	// ShortcutWidthBytes is the per-band width (16 B default).
	ShortcutWidthBytes int

	// ProfileCycles is the dry-run length used to collect F(x,y).
	ProfileCycles int64

	current *State
	stats   Stats
}

// State is the outcome of one reconfiguration.
type State struct {
	Shortcuts []shortcut.Edge
	Plan      *rfi.Plan
	Tuning    rfi.Tuning
	Config    noc.Config
	// UpdateCycles is the routing-table rewrite cost charged for this
	// reconfiguration.
	UpdateCycles int64
	// Retunes is how many mixers changed bands from the previous state.
	Retunes int
}

// Stats accumulates controller activity.
type Stats struct {
	Reconfigurations  int64
	TotalRetunes      int64
	TotalUpdateCycles int64
}

// NewController builds a controller for rfRouters access points (25, 50
// or 100) on a mesh of the given link width.
func NewController(m *topology.Mesh, width tech.LinkWidth, rfRouters int) *Controller {
	return &Controller{
		mesh:               m,
		rfEnabled:          m.RFPlacement(rfRouters),
		width:              width,
		ShortcutWidthBytes: tech.ShortcutWidthBytes,
		ProfileCycles:      20000,
	}
}

// RFEnabled returns the access-point placement.
func (c *Controller) RFEnabled() []int { return c.rfEnabled }

// Stats returns accumulated reconfiguration statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Current returns the active state (nil before the first
// reconfiguration).
func (c *Controller) Current() *State { return c.current }

// Budget returns the shortcut budget under the aggregate-bandwidth
// constraint, accounting for the multicast band when enabled.
func (c *Controller) Budget() int {
	return tech.ShortcutBudgetFor(c.ShortcutWidthBytes, c.Multicast)
}

// ReconfigureForProfile runs the full reconfiguration flow against a
// communication-frequency matrix and returns the new state.
func (c *Controller) ReconfigureForProfile(freq [][]int64) (*State, error) {
	edges := shortcut.Adaptive(c.mesh, c.rfEnabled, freq, c.Budget())
	var mcRx []int
	if c.Multicast {
		taken := map[int]bool{}
		for _, e := range edges {
			taken[e.To] = true
		}
		for _, id := range c.rfEnabled {
			if !taken[id] {
				mcRx = append(mcRx, id)
			}
		}
	}
	plan, err := rfi.NewPlan(edges, c.ShortcutWidthBytes, mcRx)
	if err != nil {
		return nil, fmt.Errorf("core: band allocation failed: %w", err)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid band plan: %w", err)
	}
	tuning := rfi.TuningFor(plan)

	cfg := noc.Config{
		Mesh:               c.mesh,
		Width:              c.width,
		Shortcuts:          edges,
		RFEnabled:          c.rfEnabled,
		ShortcutWidthBytes: c.ShortcutWidthBytes,
	}
	if c.Multicast {
		cfg.Multicast = noc.MulticastRF
		cfg.MulticastReceivers = mcRx
	}

	st := &State{
		Shortcuts:    edges,
		Plan:         plan,
		Tuning:       tuning,
		Config:       cfg,
		UpdateCycles: noc.ReconfigurationCycles(c.mesh.N()),
	}
	if c.current != nil {
		st.Retunes = rfi.Retunes(c.current.Tuning, tuning)
	} else {
		st.Retunes = rfi.Retunes(rfi.Tuning{TxBand: map[int]int{}, RxBand: map[int]int{}}, tuning)
	}
	c.current = st
	c.stats.Reconfigurations++
	c.stats.TotalRetunes += int64(st.Retunes)
	c.stats.TotalUpdateCycles += st.UpdateCycles
	return st, nil
}

// ReconfigureForWorkload profiles a fresh instance of the workload and
// reconfigures for it — the per-application flow of Section 3.2.
func (c *Controller) ReconfigureForWorkload(profile traffic.Generator) (*State, error) {
	freq := traffic.FrequencyMatrix(profile, c.mesh.N(), c.ProfileCycles)
	return c.ReconfigureForProfile(freq)
}
