// Package rfi models the multi-band RF-interconnect physical layer of
// the HPCA-2008 paper: the bundle of on-chip transmission lines, the
// frequency-band plan that divides its aggregate bandwidth among
// shortcuts (and optionally a multicast channel), per-access-point
// transmitter/receiver tuning, and the mixer retunes a reconfiguration
// costs.
//
// Physically, the overlay is a serpentine bundle of differential
// transmission lines shared by every access point. Logically it is a set
// of frequency-division channels: each unicast shortcut occupies one band
// (16 B/cycle = 256 Gbps by default), a multicast channel occupies one
// band with one transmitter and many receivers, and bands are created or
// re-assigned by re-tuning the mixers at the endpoints — no wires move.
package rfi

import (
	"errors"
	"fmt"

	"repro/internal/shortcut"
	"repro/internal/tech"
)

// Band is one frequency-division channel on the shared bundle.
type Band struct {
	// Index is the band number, 0-based from the lowest carrier.
	Index int
	// CarrierGHz is the band's carrier frequency. Bands are spaced so
	// each carries one shortcut's bandwidth with guard spacing, starting
	// above the baseband.
	CarrierGHz float64
	// WidthBytes is the data the band moves per network cycle.
	WidthBytes int
	// Multicast marks the broadcast band (one Tx, many tuned Rx).
	Multicast bool
	// Tx and Rx are the endpoint router ids. For the multicast band Rx
	// lists every tuned receiver; for a shortcut it has one entry.
	Tx int
	Rx []int
}

// BandwidthGbps returns the band's bandwidth.
func (b Band) BandwidthGbps() float64 {
	return tech.ShortcutBandwidthGbps(b.WidthBytes)
}

// Plan is a complete allocation of the bundle's aggregate bandwidth.
type Plan struct {
	Bands []Band
	// Lines is the number of physical transmission lines the plan needs.
	Lines int
}

// carrierBaseGHz is the lowest carrier frequency; bands step by
// carrierStepGHz. The absolute values are cosmetic (they follow the
// mm-wave CMOS carriers of the RF-I papers) — capacity checking is what
// matters functionally.
const (
	carrierBaseGHz = 30.0
	carrierStepGHz = 10.0
)

// NewPlan allocates bands for a shortcut set, plus one multicast band
// with the given receivers when mcReceivers is non-nil. shortcutWidth is
// the per-band width in bytes (16 in the paper). It returns an error if
// the allocation exceeds the bundle's aggregate bandwidth.
func NewPlan(shortcuts []shortcut.Edge, shortcutWidth int, mcReceivers []int) (*Plan, error) {
	if shortcutWidth <= 0 {
		shortcutWidth = tech.ShortcutWidthBytes
	}
	need := len(shortcuts) * shortcutWidth
	if mcReceivers != nil {
		need += shortcutWidth
	}
	if need > tech.RFIAggregateBytes {
		return nil, fmt.Errorf("rfi: plan needs %d B/cycle, aggregate is %d B/cycle",
			need, tech.RFIAggregateBytes)
	}
	p := &Plan{}
	for i, e := range shortcuts {
		p.Bands = append(p.Bands, Band{
			Index:      i,
			CarrierGHz: carrierBaseGHz + float64(i)*carrierStepGHz,
			WidthBytes: shortcutWidth,
			Tx:         e.From,
			Rx:         []int{e.To},
		})
	}
	if mcReceivers != nil {
		p.Bands = append(p.Bands, Band{
			Index:      len(shortcuts),
			CarrierGHz: carrierBaseGHz + float64(len(shortcuts))*carrierStepGHz,
			WidthBytes: shortcutWidth,
			Multicast:  true,
			Tx:         -1, // arbitrated among cache clusters at runtime
			Rx:         append([]int(nil), mcReceivers...),
		})
	}
	p.Lines = linesFor(float64(need*8) * tech.NetworkClockHz / 1e9)
	return p, nil
}

// linesFor returns the physical transmission lines needed for a total
// bandwidth in Gbps at tech.RFILineBandwidthGbps per line.
func linesFor(gbps float64) int {
	lines := int(gbps / tech.RFILineBandwidthGbps)
	if float64(lines)*tech.RFILineBandwidthGbps < gbps {
		lines++
	}
	return lines
}

// AggregateBytes returns the plan's total allocated bandwidth per cycle.
func (p *Plan) AggregateBytes() int {
	total := 0
	for _, b := range p.Bands {
		total += b.WidthBytes
	}
	return total
}

// Validate checks physical consistency: no transmitter drives two bands,
// no receiver listens on two bands, and the line budget holds. Every
// violation found is reported (joined into one error), not just the
// first; a line-budget overflow is broken down by band group — how much
// of the demand comes from the unicast shortcut bands and how much from
// the multicast band — so the caller knows which allocation to shrink.
func (p *Plan) Validate() error {
	var errs []error
	tx := map[int]int{}
	rx := map[int]int{}
	for _, b := range p.Bands {
		if b.Tx >= 0 {
			if prev, ok := tx[b.Tx]; ok {
				errs = append(errs, fmt.Errorf("rfi: router %d transmits on bands %d and %d", b.Tx, prev, b.Index))
			} else {
				tx[b.Tx] = b.Index
			}
		}
		for _, r := range b.Rx {
			if prev, ok := rx[r]; ok {
				errs = append(errs, fmt.Errorf("rfi: router %d receives on bands %d and %d", r, prev, b.Index))
			} else {
				rx[r] = b.Index
			}
		}
	}
	if p.Lines > tech.RFITransmissionLines {
		var uniBytes, uniBands, mcBytes, mcBands int
		for _, b := range p.Bands {
			if b.Multicast {
				mcBytes += b.WidthBytes
				mcBands++
			} else {
				uniBytes += b.WidthBytes
				uniBands++
			}
		}
		errs = append(errs, fmt.Errorf(
			"rfi: plan needs %d lines, bundle has %d (unicast: %d bands, %d B/cycle, %d lines; multicast: %d bands, %d B/cycle, %d lines)",
			p.Lines, tech.RFITransmissionLines,
			uniBands, uniBytes, linesForBytes(uniBytes),
			mcBands, mcBytes, linesForBytes(mcBytes)))
	}
	return errors.Join(errs...)
}

// linesForBytes converts a per-cycle byte demand to transmission lines.
func linesForBytes(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return linesFor(float64(bytes*8) * tech.NetworkClockHz / 1e9)
}

// Tuning maps each access point to the band its transmitter and receiver
// are tuned to (-1 when off), the paper's "transmitter/receiver tuning"
// reconfiguration step.
type Tuning struct {
	TxBand map[int]int
	RxBand map[int]int
}

// TuningFor derives endpoint tuning from a plan.
func TuningFor(p *Plan) Tuning {
	t := Tuning{TxBand: map[int]int{}, RxBand: map[int]int{}}
	for _, b := range p.Bands {
		if b.Tx >= 0 {
			t.TxBand[b.Tx] = b.Index
		}
		for _, r := range b.Rx {
			t.RxBand[r] = b.Index
		}
	}
	return t
}

// Retunes counts how many endpoint mixers change bands between two
// tunings — the physical work of a reconfiguration.
func Retunes(from, to Tuning) int {
	n := 0
	n += mapDelta(from.TxBand, to.TxBand)
	n += mapDelta(from.RxBand, to.RxBand)
	return n
}

func mapDelta(a, b map[int]int) int {
	n := 0
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			n++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			n++
		}
	}
	return n
}
