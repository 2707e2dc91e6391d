package noc

import (
	"errors"
	"fmt"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// MulticastMode selects how coherence multicasts are delivered.
type MulticastMode int

const (
	// MulticastExpand is the baseline: a multicast becomes one unicast
	// message per destination core, all injected at the source.
	MulticastExpand MulticastMode = iota

	// MulticastVCT uses virtual-circuit-tree forwarding over the
	// conventional mesh: one packet forks at tree branch routers, and a
	// per-(source, destination-set) tree table makes reuses cheaper than
	// first sends (Jerger et al., the paper's VCT baseline).
	MulticastVCT

	// MulticastRF broadcasts on a dedicated RF-I frequency band from the
	// arbitrated cache cluster's central bank; tuned receivers that match
	// the destination bit vector deliver copies locally and the rest
	// power-gate for the message duration (Section 3.3).
	MulticastRF
)

// String implements fmt.Stringer.
func (m MulticastMode) String() string {
	switch m {
	case MulticastExpand:
		return "unicast-expand"
	case MulticastVCT:
		return "vct"
	case MulticastRF:
		return "rf"
	}
	return fmt.Sprintf("MulticastMode(%d)", int(m))
}

// ParseMulticastMode resolves the command-line and sweep-spec names of
// the multicast modes: "none" or "expand", "vct" and "rf".
func ParseMulticastMode(name string) (MulticastMode, error) {
	switch name {
	case "none", "expand":
		return MulticastExpand, nil
	case "vct":
		return MulticastVCT, nil
	case "rf":
		return MulticastRF, nil
	}
	return 0, fmt.Errorf("unknown multicast mode %q (want none, expand, vct or rf)", name)
}

// Config describes one network design point.
type Config struct {
	// Mesh is the floorplan. Required.
	Mesh *topology.Mesh

	// Width is the inter-router mesh link width (16 B baseline; the
	// paper's power study reduces it to 8 B and 4 B).
	Width tech.LinkWidth

	// VCsPerClass is the number of virtual channels per input port in
	// each class (normal and escape). The paper reserves 8 escape VCs;
	// we default the normal class to 8 as well.
	VCsPerClass int

	// BufDepth is the per-VC buffer depth in flits. Default 4.
	BufDepth int

	// EscapeTimeout is how many cycles a head flit may fail VC allocation
	// in the normal class before being re-routed onto the escape VCs
	// (which use XY routing over conventional mesh links only). Default 16.
	EscapeTimeout int64

	// Shortcuts is the set of unidirectional express links overlaid on
	// the mesh. With RF-I these are single-cycle regardless of span; with
	// WireShortcuts they are conventional repeated wires whose link
	// traversal takes multiple cycles proportional to length.
	Shortcuts []shortcut.Edge

	// WireShortcuts implements the paper's "Mesh Wire Shortcuts"
	// comparison point: the same shortcut edges, realized in buffered RC
	// wire at wireMMPerCycle signal velocity instead of RF-I.
	WireShortcuts bool

	// RFEnabled lists the RF-enabled routers (access points). Used for
	// power/area accounting and as the candidate multicast receiver set.
	RFEnabled []int

	// Multicast selects the delivery mechanism for multicast messages.
	Multicast MulticastMode

	// MulticastReceivers lists the routers whose RF receivers are tuned
	// to the multicast band (MulticastRF only). Defaults to RFEnabled
	// minus any shortcut destination routers.
	MulticastReceivers []int

	// ShortcutWidthBytes is the width of one RF-I shortcut band (16 B in
	// the paper regardless of mesh width). On meshes narrower than the
	// shortcut, the RF port moves ShortcutWidthBytes/link-width flits per
	// cycle.
	ShortcutWidthBytes int

	// Fault configures the transient-fault model: per-flit corruption
	// probabilities on mesh links and RF-I bands, the link-layer retry
	// budget and backoff, and the RNG seed. The zero value simulates a
	// fault-free world at seed speed. Permanent failures are injected at
	// runtime via KillShortcut/KillMeshLink/KillMulticastBand (typically
	// through an internal/fault schedule), with or without this model.
	Fault FaultConfig

	// AdaptiveRouting enables the HPCA-2008 paper's contention-avoiding
	// adaptive routing: at each router a head flit may choose any output
	// port on a minimal path through the augmented topology, picking the
	// one with the most free downstream VCs. Deadlock freedom comes from
	// the escape VCs (Duato's protocol: adaptive classes may be cyclic as
	// long as a deadlock-free escape class is always reachable). Off by
	// default (deterministic table routing).
	AdaptiveRouting bool
}

// Bounds of the VC knobs: a VC's index within its port is an int8 and its
// flit counters are int32 (see vcState).
const (
	maxVCsPerClass = 63
	maxBufDepth    = 1 << 16
)

// withDefaults returns a copy of c with zero fields defaulted.
func (c Config) withDefaults() Config {
	if c.Mesh == nil {
		c.Mesh = topology.New10x10()
	}
	if c.Width == 0 {
		c.Width = tech.Width16B
	}
	if c.VCsPerClass == 0 {
		c.VCsPerClass = 8
	}
	if c.BufDepth == 0 {
		c.BufDepth = 4
	}
	if c.EscapeTimeout == 0 {
		c.EscapeTimeout = 16
	}
	if c.ShortcutWidthBytes == 0 {
		c.ShortcutWidthBytes = tech.ShortcutWidthBytes
	}
	if c.Multicast == MulticastRF && c.MulticastReceivers == nil {
		c.MulticastReceivers = DefaultMulticastReceivers(c.RFEnabled, c.Shortcuts)
	}
	return c
}

// localSpeedup is how many flits per cycle the NI<->router local channel
// moves. The paper's bandwidth-reduction study narrows the expensive
// inter-router links; the short local connection keeps its 16 B width,
// so narrower meshes inject and eject proportionally more (narrower)
// flits per cycle.
func (c Config) localSpeedup() int {
	return max(1, int(tech.Width16B)/c.Width.Bytes())
}

// Validate checks the configuration for user errors — invalid knob
// values, out-of-range router references, and structurally invalid
// shortcut sets — accumulating every violation found (errors.Join)
// rather than stopping at the first. Zero fields are defaulted before
// checking, mirroring construction.
func (c Config) Validate() error {
	c = c.withDefaults()
	var errs []error
	if !c.Width.Valid() {
		errs = append(errs, fmt.Errorf("noc: invalid link width %d", int(c.Width)))
	}
	if c.VCsPerClass < 1 || c.VCsPerClass > maxVCsPerClass {
		errs = append(errs, fmt.Errorf("noc: VCs per class must be in [1,%d], got %d", maxVCsPerClass, c.VCsPerClass))
	}
	if c.BufDepth < 1 || c.BufDepth > maxBufDepth {
		errs = append(errs, fmt.Errorf("noc: VC buffer depth must be in [1,%d], got %d", maxBufDepth, c.BufDepth))
	}
	if c.EscapeTimeout < 1 {
		errs = append(errs, fmt.Errorf("noc: escape timeout must be positive, got %d", c.EscapeTimeout))
	}
	if c.Multicast < MulticastExpand || c.Multicast > MulticastRF {
		errs = append(errs, fmt.Errorf("noc: unknown multicast mode %d", int(c.Multicast)))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"mesh flit-error", c.Fault.MeshBER}, {"RF flit-error", c.Fault.RFBER},
	} {
		if f.v < 0 || f.v > 1 {
			errs = append(errs, fmt.Errorf("noc: %s rate %v outside [0,1]", f.name, f.v))
		}
	}
	N := c.Mesh.N()
	for _, set := range []struct {
		name string
		ids  []int
	}{{"RF-enabled", c.RFEnabled}, {"multicast receiver", c.MulticastReceivers}} {
		for _, id := range set.ids {
			if id < 0 || id >= N {
				errs = append(errs, fmt.Errorf("noc: %s router %d out of range", set.name, id))
			}
		}
	}
	if err := validateShortcutEdges(N, c.Shortcuts, nil); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// DefaultMulticastReceivers is the RF-enabled set minus shortcut
// destination routers (whose receivers are tuned to their shortcut
// band), in rfEnabled's order: the receivers an RF multicast config
// gets when it names none.
func DefaultMulticastReceivers(rfEnabled []int, shortcuts []shortcut.Edge) []int {
	taken := map[int]bool{}
	for _, e := range shortcuts {
		taken[e.To] = true
	}
	var out []int
	for _, id := range rfEnabled {
		if !taken[id] {
			out = append(out, id)
		}
	}
	return out
}

// RFPortsAt returns how many unidirectional RF ports router id carries
// under this configuration, for the area/power model (Table 2):
//
//   - an adaptive design (RFEnabled non-empty) builds both a transmitter
//     and a receiver at every access point, whether or not the current
//     reconfiguration uses them — that flexibility is exactly the
//     overhead the paper charges the adaptive architecture for;
//   - a static (architecture-specific) design builds only what its fixed
//     shortcut set needs: one Tx port per source, one Rx port per
//     destination, plus multicast transmitter/receiver attachments.
func (c Config) RFPortsAt(id int) int {
	if len(c.RFEnabled) > 0 {
		for _, r := range c.RFEnabled {
			if r == id {
				return 2
			}
		}
		// Multicast transmitters at cluster-central banks may sit outside
		// the access-point placement.
		if c.Multicast == MulticastRF {
			for ci := 0; ci < len(c.Mesh.CacheClusters()); ci++ {
				if c.Mesh.CentralBank(ci) == id {
					return 1
				}
			}
		}
		return 0
	}
	n := 0
	for _, e := range c.Shortcuts {
		if !c.WireShortcuts {
			if e.From == id {
				n++
			}
			if e.To == id {
				n++
			}
		}
	}
	if c.Multicast == MulticastRF {
		for _, r := range c.MulticastReceivers {
			if r == id {
				n++
			}
		}
		for ci := 0; ci < len(c.Mesh.CacheClusters()); ci++ {
			if c.Mesh.CentralBank(ci) == id {
				n++
			}
		}
	}
	return n
}

// RFEndpointCount returns the total number of unidirectional RF ports in
// the design (transmitters plus receivers), the unit of RF-I silicon
// area and standing power.
func (c Config) RFEndpointCount() int {
	n := 0
	for id := 0; id < c.Mesh.N(); id++ {
		n += c.RFPortsAt(id)
	}
	return n
}
