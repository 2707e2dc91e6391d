package rfnoc

import (
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/rfi"
)

// The adaptive-NoC controller: the paper's reconfiguration flow
// (profile -> select shortcuts -> allocate frequency bands -> rebuild
// routing tables) packaged as one component. See internal/core.
type (
	// Controller manages the adaptive RF-I overlay of one CMP across
	// application switches.
	Controller = core.Controller

	// ReconfigState is the outcome of one reconfiguration: the selected
	// shortcuts, the frequency-band plan, mixer tuning, and the ready
	// simulator configuration.
	ReconfigState = core.State

	// BandPlan is a frequency-division allocation of the RF-I bundle's
	// aggregate bandwidth.
	BandPlan = rfi.Plan

	// Band is one frequency channel of a plan.
	Band = rfi.Band
)

// NewController builds an adaptive-overlay controller for rfRouters
// access points (25, 50 or 100) on a mesh with the given link width.
func NewController(m *Mesh, w LinkWidth, rfRouters int) *Controller {
	return core.NewController(m, w, rfRouters)
}

// NewBandPlan allocates frequency bands for a shortcut set (plus one
// multicast band when mcReceivers is non-nil), enforcing the 256 B/cycle
// aggregate-bandwidth budget of the 43-line bundle.
func NewBandPlan(shortcuts []ShortcutEdge, shortcutWidthBytes int, mcReceivers []int) (*BandPlan, error) {
	return rfi.NewPlan(shortcuts, shortcutWidthBytes, mcReceivers)
}

// ReconfigurationCycles is the routing-table rewrite cost of switching
// plans (99 cycles on the paper's 100-router mesh); simulation charges
// the same cost on every Network.Reconfigure.
func ReconfigurationCycles(routers int) int64 {
	return noc.ReconfigurationCycles(routers)
}
