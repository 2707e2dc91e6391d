// Package experiments assembles design points and regenerates every table
// and figure of the paper's evaluation (Section 5): Figure 1 (traffic by
// manhattan distance), Figure 7 (number of RF-enabled routers), Figure 8
// (mesh bandwidth reduction), Table 2 (area), Figure 9 (multicast), and
// Figures 10a/10b (unified power-performance comparisons), plus the
// application-trace summary and the headline-claims digest.
package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/noc"
	"repro/internal/shortcut"
	"repro/internal/sweepcache"
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
	var freq [][]int64
	if d.Kind == Adaptive {
		if profile == nil {
			panic("experiments: adaptive design needs a workload profile")
		}
		if profileCycles <= 0 {
			profileCycles = defaultProfileCycles
		}
		freq = traffic.FrequencyMatrix(profile, m.N(), profileCycles)
	}
	return build(m, d, freq)
}

// Point is one simulation described as data: a design on one workload,
// with the router settings a Design does not carry. A zero router field
// keeps the noc default. Points are comparable, so a plan keys its
// results by them.
type Point struct {
	Design          Design
	Gen             GenSpec
	VCsPerClass     int
	BufDepth        int
	EscapeTimeout   int64
	AdaptiveRouting bool
}

// BuildSpec is the one way a described point becomes a simulator
// configuration: Build for a workload given as data, plus the point's
// router settings. An Adaptive design's frequency matrix comes from the
// profile memo, so a repeated build does no profiling; pt.Gen is read
// only then, and an error means its workload has no generator.
func BuildSpec(m *topology.Mesh, pt Point, profileCycles int64) (noc.Config, error) {
	var freq [][]int64
	if pt.Design.Kind == Adaptive {
		if profileCycles <= 0 {
			profileCycles = defaultProfileCycles
		}
		var err error
		if freq, err = memoProfile(m, pt.Gen.profile(), profileCycles); err != nil {
			return noc.Config{}, err
		}
	}
	cfg := build(m, pt.Design, freq)
	cfg.VCsPerClass, cfg.BufDepth = pt.VCsPerClass, pt.BufDepth
	cfg.EscapeTimeout, cfg.AdaptiveRouting = pt.EscapeTimeout, pt.AdaptiveRouting
	return cfg, nil
}

// defaultProfileCycles is the profiling dry run's length when the
// caller gives none.
const defaultProfileCycles = 20000

// profileMemo holds frequency matrices by profile, for every BuildSpec
// caller: a plan, rfsimd's compile and the supervised grid. Counts
// encode as varints: a 10x10 matrix at the default rate and profile
// length takes 10.1 KB, so the bound keeps the memo near 0.2 MB there.
// The largest plan, LoadLatency's, reads 8 profiles; with 16 entries
// evicted first in, first out, no plan profiles a workload twice.
var profileMemo = sweepcache.New(16)

// ProfileMemoStats snapshots the profile memo's counters.
func ProfileMemoStats() sweepcache.Stats { return profileMemo.Stats() }

// memoProfile returns the frequency matrix of profile on m over cycles,
// collecting it on a miss, with single flight. The key is everything
// the matrix depends on: the mesh shape, cycles and the spec. Every
// call returns a fresh matrix.
func memoProfile(m *topology.Mesh, profile GenSpec, cycles int64) ([][]int64, error) {
	var key []byte
	for _, v := range []int64{int64(m.W), int64(m.H), cycles, int64(math.Float64bits(profile.Rate)), profile.Seed} {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	key = append(key, profile.Workload...)
	// The context is never cancelled, so Do fails only if Build does.
	blob, _, err := profileMemo.Do(context.Background(), string(key), func() ([]byte, error) {
		g, err := profile.Build(m)
		if err != nil {
			return nil, err
		}
		return encodeFreq(traffic.FrequencyMatrix(g, m.N(), cycles)), nil
	})
	if err != nil {
		return nil, err
	}
	return decodeFreq(blob, m.N()), nil
}

// encodeFreq writes each row of an n-row matrix as a presence byte and,
// for a non-nil row, its n counts as uvarints. FrequencyMatrix leaves
// rows nil for routers that sent nothing, and selection keys tell a nil
// row from a row of zeros, so the encoding keeps them apart.
func encodeFreq(freq [][]int64) []byte {
	var blob []byte
	for _, row := range freq {
		if row == nil {
			blob = append(blob, 0)
			continue
		}
		blob = append(blob, 1)
		for _, f := range row {
			blob = binary.AppendUvarint(blob, uint64(f))
		}
	}
	return blob
}

// decodeFreq is encodeFreq's inverse for an n-row matrix.
func decodeFreq(blob []byte, n int) [][]int64 {
	freq := make([][]int64, n)
	for x := range freq {
		present := blob[0] == 1
		blob = blob[1:]
		if !present {
			continue
		}
		row := make([]int64, n)
		for y := range row {
			f, k := binary.Uvarint(blob)
			row[y], blob = int64(f), blob[k:]
		}
		freq[x] = row
	}
	return freq
}

// build is Build from an already-collected frequency matrix, which only
// an Adaptive design reads.
func build(m *topology.Mesh, d Design, freq [][]int64) noc.Config {
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
// (Section 3.2.1, Figure 3(b) heuristic); see shortcut.Static.
func StaticShortcuts(m *topology.Mesh, budget int) []shortcut.Edge {
	return shortcut.Static(m, budget)
}

// AdaptiveShortcuts returns the application-specific shortcut set
// (Section 3.2.2) restricted to RF-enabled routers; see shortcut.Adaptive.
func AdaptiveShortcuts(m *topology.Mesh, rfEnabled []int, freq [][]int64, budget int) []shortcut.Edge {
	return shortcut.Adaptive(m, rfEnabled, freq, budget)
}
