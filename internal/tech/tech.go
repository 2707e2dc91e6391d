// Package tech holds the 32 nm technology parameters and calibration
// constants used by the power, area and timing models.
//
// The values mirror the paper's Figure 6(a) technology table and the RF-I
// projections from Chang et al. (0.75 pJ/bit, 124 um^2/Gbps). Router
// area/leakage constants are calibrated so that the analytic model
// reproduces the paper's Table 2 NoC area breakdown exactly at the three
// evaluated link widths (16 B, 8 B, 4 B).
package tech

import (
	"fmt"
	"math"
)

// Physical and architectural constants shared across the models. All
// energies are in joules, areas in mm^2, lengths in mm, times in seconds
// unless a name says otherwise.
const (
	// VDD is the 32 nm supply voltage in volts.
	VDD = 0.9

	// NetworkClockHz is the interconnect clock (2 GHz in the paper).
	NetworkClockHz = 2.0e9

	// CoreClockHz is the core/cache clock (4 GHz in the paper).
	CoreClockHz = 4.0e9

	// NetworkCyclePeriod is the duration of one network cycle in seconds.
	NetworkCyclePeriod = 1.0 / NetworkClockHz

	// DieAreaMM2 is the die size the paper assumes (400 mm^2, 20 mm side).
	DieAreaMM2 = 400.0

	// DieSideMM is the die edge length in mm.
	DieSideMM = 20.0

	// RouterSpacingMM is the distance D between adjacent routers on the
	// 10x10 mesh of a 20 mm die.
	RouterSpacingMM = DieSideMM / 10.0

	// RFIEnergyPerBit is the projected RF-I energy per transmitted bit at
	// 32 nm: 0.75 pJ.
	RFIEnergyPerBit = 0.75e-12

	// RFIAreaPerGbps is the projected RF-I active-layer silicon area per
	// Gbps of bandwidth: 124 um^2 expressed in mm^2.
	RFIAreaPerGbps = 124.0e-6

	// RFILineBandwidthGbps is the bandwidth carried by one RF-I
	// transmission line (96 Gbps in the paper).
	RFILineBandwidthGbps = 96.0

	// RFIAggregateBytes is the total RF-I bandwidth budget per network
	// cycle (256 B/cycle = 4096 Gbps at 2 GHz).
	RFIAggregateBytes = 256

	// RFITransmissionLines is the number of parallel transmission lines
	// needed for the aggregate budget (43 in the paper).
	RFITransmissionLines = 43

	// ShortcutWidthBytes is the width of one RF-I shortcut (16 B).
	ShortcutWidthBytes = 16

	// ShortcutBudget is the number of unidirectional shortcuts the
	// aggregate RF-I bandwidth affords (B = 16).
	ShortcutBudget = 16
)

// ShortcutBudgetFor is the number of shortcuts of widthBytes (0 means
// ShortcutWidthBytes) the aggregate RF-I bandwidth affords, one fewer
// when a band is taken by the multicast channel (the paper's MC+SC
// uses 15).
func ShortcutBudgetFor(widthBytes int, multicastBand bool) int {
	if widthBytes <= 0 {
		widthBytes = ShortcutWidthBytes
	}
	b := RFIAggregateBytes / widthBytes
	if multicastBand {
		b--
	}
	return b
}

// Wire-level RC parameters from the paper's Figure 6(a). They feed the
// CosiNoC/IPEM-style link model in internal/power.
const (
	// R0 is the output resistance of a minimum-sized repeater (ohms).
	R0 = 10.0e3

	// C0 is the input capacitance of a repeater stage (farads).
	C0 = 10.0e-15

	// Cp is the output parasitic capacitance of a repeater stage (F).
	Cp = 5.0e-15

	// RWire is the wire resistance per mm (ohms/mm) for a minimum-width
	// global wire at 32 nm.
	RWire = 1.2e3

	// CWire is the wire capacitance per mm (farads/mm).
	CWire = 0.25e-12

	// IOff is the off-state (leakage) current per transistor-width of a
	// minimum-width device (amps per um of width).
	IOff = 150.0e-9

	// WMin is the minimum repeater transistor width (um).
	WMin = 0.045
)

// OptimalRepeaterSize returns k_opt, the delay-optimal repeater upsizing
// factor for a repeated global wire:
//
//	k_opt = sqrt( r0 * c_wire / (r_wire * (c0 + cp)) )
//
// which is the first equation of the paper's Figure 6(b).
func OptimalRepeaterSize() float64 {
	return math.Sqrt(R0 * CWire / (RWire * (C0 + Cp)))
}

// OptimalRepeaterSpacing returns h_opt in mm, the delay-optimal distance
// between repeaters. The paper obtains it from IPEM; we use the classical
// closed form that IPEM's buffer-insertion converges to:
//
//	h_opt = sqrt( 2 * r0 * (c0 + cp) / (r_wire * c_wire) )
func OptimalRepeaterSpacing() float64 {
	return math.Sqrt(2.0 * R0 * (C0 + Cp) / (RWire * CWire))
}

// LinkWidth enumerates the mesh link widths evaluated by the paper.
type LinkWidth int

// The evaluated inter-router link widths in bytes.
const (
	Width4B  LinkWidth = 4
	Width8B  LinkWidth = 8
	Width16B LinkWidth = 16
)

// Bytes returns the link width in bytes.
func (w LinkWidth) Bytes() int { return int(w) }

// Bits returns the link width in bits.
func (w LinkWidth) Bits() int { return int(w) * 8 }

// String implements fmt.Stringer ("16B", "8B", "4B").
func (w LinkWidth) String() string { return fmt.Sprintf("%dB", int(w)) }

// Valid reports whether w is one of the calibrated widths.
func (w LinkWidth) Valid() bool {
	switch w {
	case Width4B, Width8B, Width16B:
		return true
	}
	return false
}

// routerCal holds per-width calibration data fitted to the paper's
// Table 2. Areas are mm^2.
type routerCal struct {
	// fiveportArea is the area of one 5-port mesh router.
	fivePortArea float64
	// rfPortArea is the incremental router area for one unidirectional
	// RF-I port (a 6th input or output port). Table 2 shows this adder is
	// the same whether the port is a Tx or an Rx attachment.
	rfPortArea float64
	// dynEnergyPerFlit is the Orion-style router dynamic energy consumed
	// by one flit traversing one router (buffer write + read, crossbar,
	// arbitration), in joules.
	dynEnergyPerFlit float64
	// leakagePower is the leakage power of one 5-port router in watts.
	leakagePower float64
}

// Calibration table. Areas reproduce Table 2 exactly:
//
//	width  5-port router  RF port adder   (100 routers => Table 2 row)
//	16B    0.3021         0.0578          30.21 / +1.85 per 32 ports
//	 8B    0.0934         0.01625          9.34 / +0.52
//	 4B    0.0323         0.0050           3.23 / +0.16
//
// Dynamic energy per flit follows an Orion-like decomposition
// E = E_const + E_buf(w) + E_xbar(w^2) evaluated at each width; leakage is
// proportional to area. The absolute scale of the energy terms was chosen
// so that, at the default injection rates used in the experiments, the
// dynamic/leakage split at 16 B is roughly 70/30 -- which reproduces the
// paper's reported power reductions for 8 B and 4 B meshes to within a few
// percent (see EXPERIMENTS.md for measured-vs-paper numbers).
var routerCals = map[LinkWidth]routerCal{
	Width16B: {
		fivePortArea:     0.3021,
		rfPortArea:       0.0578,
		dynEnergyPerFlit: routerDynEnergy(16),
		leakagePower:     leakagePerArea * 0.3021,
	},
	Width8B: {
		fivePortArea:     0.0934,
		rfPortArea:       0.01625,
		dynEnergyPerFlit: routerDynEnergy(8),
		leakagePower:     leakagePerArea * 0.0934,
	},
	Width4B: {
		fivePortArea:     0.0323,
		rfPortArea:       0.0050,
		dynEnergyPerFlit: routerDynEnergy(4),
		leakagePower:     leakagePerArea * 0.0323,
	},
}

// Energy model coefficients (joules). See routerCals for the rationale.
const (
	// routerEnergyConst is the width-independent per-flit energy
	// (arbitration, control).
	routerEnergyConst = 0.5e-12
	// routerEnergyPerByte is the linear (buffer read+write) term.
	routerEnergyPerByte = 0.3e-12
	// routerEnergyPerByteSq is the quadratic (crossbar) term.
	routerEnergyPerByteSq = 0.12e-12
	// leakagePerArea converts router area (mm^2) to leakage power
	// (W/mm^2). Chosen so the 16 B baseline's leakage is roughly a third
	// of its total NoC power at the default injection rates, the split
	// under which the paper's 8 B and 4 B savings percentages emerge.
	leakagePerArea = 0.12

	// RFIStaticPerEndpoint is the standing power in watts of one RF-I
	// transmitter or receiver (carrier generation, mixer, LPF bias). This
	// is the "overhead incurred for supporting RF-I" that makes the
	// adaptive 50-AP design cost ~24% extra power at 16 B while the
	// 32-endpoint static design costs ~11% (Section 5.1.1).
	RFIStaticPerEndpoint = 7.0e-3
)

// routerDynEnergy evaluates the Orion-style per-flit router energy at a
// link width of w bytes.
func routerDynEnergy(w float64) float64 {
	return routerEnergyConst + routerEnergyPerByte*w + routerEnergyPerByteSq*w*w
}

// RouterArea returns the active-layer area in mm^2 of one router with the
// given link width and rfPorts additional unidirectional RF-I ports
// (0 for a plain mesh router, 1 for a Tx-only or Rx-only attachment,
// 2 for a router with both an RF transmitter and receiver).
func RouterArea(w LinkWidth, rfPorts int) float64 {
	c := mustCal(w)
	return c.fivePortArea + float64(rfPorts)*c.rfPortArea
}

// RouterDynamicEnergyPerFlit returns the dynamic energy in joules consumed
// by a single flit traversing a single router at link width w.
func RouterDynamicEnergyPerFlit(w LinkWidth) float64 {
	return mustCal(w).dynEnergyPerFlit
}

// RouterLeakagePower returns the leakage power in watts of one router at
// link width w with rfPorts extra unidirectional RF ports. Leakage scales
// with area.
func RouterLeakagePower(w LinkWidth, rfPorts int) float64 {
	return leakagePerArea * RouterArea(w, rfPorts)
}

// RFIEndpointArea returns the silicon area in mm^2 of a single RF-I
// endpoint (one transmitter or one receiver) sized for bandwidthGbps.
// A 16 B shortcut at 2 GHz moves 256 Gbps; at 124 um^2/Gbps the
// transmitter and receiver each account for half the 0.0317 mm^2 of the
// full shortcut, matching Table 2's per-access-point increments.
func RFIEndpointArea(bandwidthGbps float64) float64 {
	return RFIAreaPerGbps * bandwidthGbps / 2.0
}

// ShortcutBandwidthGbps returns the bandwidth in Gbps of one shortcut of
// widthBytes at the network clock.
func ShortcutBandwidthGbps(widthBytes int) float64 {
	return float64(widthBytes*8) * NetworkClockHz / 1e9
}

func mustCal(w LinkWidth) routerCal {
	c, ok := routerCals[w]
	if !ok {
		panic(fmt.Sprintf("tech: uncalibrated link width %d bytes", int(w)))
	}
	return c
}

// Widths lists the calibrated link widths from widest to narrowest, the
// order the paper's sweeps use.
func Widths() []LinkWidth { return []LinkWidth{Width16B, Width8B, Width4B} }
