package noc

import (
	"errors"
	"fmt"

	"repro/internal/shortcut"
)

// This file provides what runtime (as opposed to per-application)
// reconfiguration needs: online collection of the inter-router
// communication-frequency matrix by the network's own event counters
// (Section 3.2.2: "information that can be readily collected by event
// counters in our network"), a delivery hook for closed-loop workload
// models, and quiesced retuning of the shortcut overlay.

// ObservedFrequency returns a copy of the frequency matrix F(x,y)
// counted by the network since the last reset: the number of unicast
// messages injected from router x to router y. Collection is always on;
// the counters are plain int64s and cost one increment per message.
func (n *Network) ObservedFrequency() [][]int64 {
	out := make([][]int64, len(n.freq))
	for i, row := range n.freq {
		if row != nil {
			out[i] = append([]int64(nil), row...)
		}
	}
	return out
}

// ResetObservedFrequency clears the frequency counters (done at each
// reconfiguration boundary so each window profiles only itself).
func (n *Network) ResetObservedFrequency() {
	for i := range n.freq {
		n.freq[i] = nil
	}
}

// Reconfigure retunes the RF-I overlay to a new shortcut set and
// rebuilds every routing table, charging the paper's parallel
// table-update cost (one cycle per other router) by stepping the network
// idle for that long. The network must be drained: retuning a band whose
// receiver still holds flits would deliver them to the wrong router, so
// — like the paper — reconfiguration happens at a quiesced context
// switch.
//
// The edge list is validated in full before any state changes: on error
// the previous plan (and its routing tables) remains installed, and the
// returned error joins every violation found — out-of-range or
// self-looping edges, routers claimed by two bands in the same role, and
// endpoints whose RF hardware has permanently failed.
func (n *Network) Reconfigure(edges []shortcut.Edge) error {
	if n.InFlight() != 0 {
		return fmt.Errorf("noc: cannot reconfigure with %d packets in flight", n.InFlight())
	}
	if err := n.validateShortcutSet(edges); err != nil {
		return err
	}
	for i := range n.shortcutFrom {
		n.shortcutFrom[i] = -1
		n.shortcutTo[i] = -1
		n.shortcutLat[i] = 0
	}
	for _, e := range edges {
		n.shortcutFrom[e.From] = e.To
		n.shortcutTo[e.To] = e.From
		n.shortcutLat[e.From] = n.shortcutLatency(e)
	}
	n.cfg.Shortcuts = append([]shortcut.Edge(nil), edges...)
	if n.faults != nil {
		// The new plan allocates fresh bands on validated-healthy
		// endpoints; per-band death flags from the old plan do not carry
		// over (failedTx/failedRx, the hardware record, do).
		for i := range n.faults.shortcutDead {
			n.faults.shortcutDead[i] = false
		}
	}
	n.routes = buildRoutes(n)
	n.stats.Reconfigurations++
	// Routing-table update: all routers written in parallel, one cycle
	// per table entry (99 cycles on the 100-router mesh).
	update := int64(n.cfg.Mesh.N() - 1)
	n.stats.ReconfigUpdateCycles += update
	n.Run(update)
	for _, o := range n.observers {
		o.Replanned(len(edges), n.now)
	}
	return nil
}

// validateShortcutSet checks a proposed shortcut set against the mesh
// and the fault record, accumulating every violation instead of stopping
// at the first.
func (n *Network) validateShortcutSet(edges []shortcut.Edge) error {
	return validateShortcutEdges(n.cfg.Mesh.N(), edges, n.FailedRFEndpoint)
}

// validateShortcutEdges is the shared structural check behind both
// Config.Validate (no fault record yet, failed == nil) and runtime
// reconfiguration.
func validateShortcutEdges(N int, edges []shortcut.Edge, failed func(int) (bool, bool)) error {
	var errs []error
	txClaim := make(map[int]int, len(edges)) // router -> first claiming edge
	rxClaim := make(map[int]int, len(edges))
	for i, e := range edges {
		bad := false
		if e.From < 0 || e.From >= N {
			errs = append(errs, fmt.Errorf("noc: edge %d: unknown router index %d as source", i, e.From))
			bad = true
		}
		if e.To < 0 || e.To >= N {
			errs = append(errs, fmt.Errorf("noc: edge %d: unknown router index %d as destination", i, e.To))
			bad = true
		}
		if bad {
			continue
		}
		if e.From == e.To {
			errs = append(errs, fmt.Errorf("noc: edge %d: self-loop shortcut at router %d", i, e.From))
			continue
		}
		if prev, ok := txClaim[e.From]; ok {
			errs = append(errs, fmt.Errorf("noc: edge %d: router %d has two outbound shortcuts (also edge %d)", i, e.From, prev))
		} else {
			txClaim[e.From] = i
		}
		if prev, ok := rxClaim[e.To]; ok {
			errs = append(errs, fmt.Errorf("noc: edge %d: router %d has two inbound shortcuts (also edge %d)", i, e.To, prev))
		} else {
			rxClaim[e.To] = i
		}
		if failed == nil {
			continue
		}
		if tx, _ := failed(e.From); tx {
			errs = append(errs, fmt.Errorf("noc: edge %d: router %d's RF transmitter has failed", i, e.From))
		}
		if _, rx := failed(e.To); rx {
			errs = append(errs, fmt.Errorf("noc: edge %d: router %d's RF receiver has failed", i, e.To))
		}
	}
	return errors.Join(errs...)
}
