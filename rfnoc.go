// Package rfnoc is the public API of this reproduction of "CMP
// network-on-chip overlaid with multi-band RF-interconnect" (Chang et
// al., HPCA 2008) and its power-reduction follow-on: a flit-level CMP
// NoC simulator with a multi-band RF-interconnect overlay, shortcut
// selection, RF multicast, and the power/area models needed to
// regenerate the papers' evaluation.
//
// The three things most users want:
//
//   - Simulate a design point: build a Config (BaselineConfig,
//     StaticConfig, AdaptiveConfig...), pick a workload (Pattern or App
//     generators from NewPatternTraffic/NewAppTraffic, or your own
//     Generator), and call Simulate.
//   - Select shortcuts: StaticShortcuts for architecture-specific sets,
//     AdaptiveShortcuts for application-specific sets driven by a
//     frequency profile (ProfileTraffic).
//   - Regenerate the paper: the Figure/Table functions in this package
//     mirror cmd/experiments.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package rfnoc

import (
	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Core types, re-exported from the implementation packages.
type (
	// Mesh is the 10x10 CMP floorplan: 64 cores, 32 cache banks in four
	// clusters, 4 memory ports on the corners.
	Mesh = topology.Mesh

	// Coord is a router position.
	Coord = topology.Coord

	// NodeKind classifies a router's local component.
	NodeKind = topology.NodeKind

	// LinkWidth is a mesh link width (16, 8 or 4 bytes per cycle).
	LinkWidth = tech.LinkWidth

	// Config describes one network design point for the simulator.
	Config = noc.Config

	// Network is a running simulation.
	Network = noc.Network

	// Message is one network message.
	Message = noc.Message

	// Class is a message class (request, data, memory line, invalidate,
	// fill).
	Class = noc.Class

	// NetStats holds the raw activity counters of a simulation.
	NetStats = noc.Stats

	// MulticastMode selects multicast delivery (unicast expansion, VCT,
	// or RF-I broadcast).
	MulticastMode = noc.MulticastMode

	// ShortcutEdge is one unidirectional RF-I (or wire) shortcut.
	ShortcutEdge = shortcut.Edge

	// Generator produces workload messages cycle by cycle.
	Generator = traffic.Generator

	// Pattern is one of the paper's seven probabilistic traces.
	Pattern = traffic.Pattern

	// App is one of the synthetic application traces standing in for the
	// paper's Simics-captured PARSEC/SPECjbb traces.
	App = traffic.App

	// PowerBreakdown is average power in watts by component.
	PowerBreakdown = power.Breakdown

	// AreaBreakdown is silicon area in mm^2 by component (Table 2).
	AreaBreakdown = power.Area

	// Design names a paper design point (kind, width, access points,
	// multicast mode).
	Design = experiments.Design

	// DesignKind distinguishes baseline/static/wire/adaptive overlays.
	DesignKind = experiments.DesignKind

	// Options controls simulation length and workload intensity.
	Options = experiments.Options

	// Result is one (workload, design) measurement.
	Result = experiments.Result

	// CoherenceWorkload parameterizes the directory-protocol traffic
	// generator.
	CoherenceWorkload = coherence.Workload

	// CoherenceProtocol is the directory engine (a Generator).
	CoherenceProtocol = coherence.Protocol

	// Observer receives simulation events from the router pipeline:
	// flit departures and ejections, unicast and multicast deliveries,
	// link failures, overlay replans and cycle boundaries. Counts with
	// no per-event payload (injections, corruptions, retransmissions)
	// are in NetStats instead. Attach with Network.AttachObserver or
	// SimulateObserved; embed BaseObserver to implement a subset.
	Observer = noc.Observer

	// BaseObserver is a no-op Observer for embedding.
	BaseObserver = noc.BaseObserver

	// AuditReport is a consistency snapshot from Network.Audit: flit
	// conservation, credit sanity, and forward-progress evidence.
	AuditReport = noc.AuditReport

	// LatencyRecorder collects O(1)-memory packet- and flit-latency
	// histograms (p50/p90/p99/max).
	LatencyRecorder = obs.LatencyRecorder

	// LatencySummary is a percentile digest of a latency histogram.
	LatencySummary = obs.Summary

	// LatencyHistogram is the underlying fixed-memory log-linear
	// histogram.
	LatencyHistogram = obs.Histogram

	// LinkTimeline samples per-port link occupancy in cycle windows,
	// exportable as CSV or JSON.
	LinkTimeline = obs.LinkTimeline

	// InvariantChecker audits flit conservation, VC credit sanity and
	// forward progress every K cycles, panicking with a router dump on
	// violation.
	InvariantChecker = obs.InvariantChecker
)

// Link widths.
const (
	Width16B = tech.Width16B
	Width8B  = tech.Width8B
	Width4B  = tech.Width4B
)

// Node kinds.
const (
	Core   = topology.Core
	Cache  = topology.Cache
	Memory = topology.Memory
)

// Message classes (sizes per the paper: 7 B, 39 B, 132 B).
const (
	Request    = noc.Request
	Data       = noc.Data
	MemLine    = noc.MemLine
	Invalidate = noc.Invalidate
	Fill       = noc.Fill
)

// Multicast modes.
const (
	MulticastExpand = noc.MulticastExpand
	MulticastVCT    = noc.MulticastVCT
	MulticastRF     = noc.MulticastRF
)

// Design kinds.
const (
	Baseline   = experiments.Baseline
	Static     = experiments.Static
	WireStatic = experiments.WireStatic
	Adaptive   = experiments.Adaptive
)

// Probabilistic trace patterns (Table 1).
const (
	Uniform  = traffic.Uniform
	UniDF    = traffic.UniDF
	BiDF     = traffic.BiDF
	HotBiDF  = traffic.HotBiDF
	Hotspot1 = traffic.Hotspot1
	Hotspot2 = traffic.Hotspot2
	Hotspot4 = traffic.Hotspot4
)

// Application traces.
const (
	X264          = traffic.X264
	Bodytrack     = traffic.Bodytrack
	Fluidanimate  = traffic.Fluidanimate
	Streamcluster = traffic.Streamcluster
	SPECjbb       = traffic.SPECjbb
)

// RF-I budget constants from the paper.
const (
	// ShortcutBudget is the number of 16 B shortcuts the 256 B aggregate
	// RF-I bandwidth affords.
	ShortcutBudget = tech.ShortcutBudget
	// RFIAggregateBytes is the total RF-I bandwidth per network cycle.
	RFIAggregateBytes = tech.RFIAggregateBytes
)

// NewMesh returns the paper's 10x10 floorplan.
func NewMesh() *Mesh { return topology.New10x10() }

// NewNetwork builds a simulator for a configuration.
func NewNetwork(cfg Config) *Network { return noc.New(cfg) }

// Patterns lists the seven probabilistic traces in the paper's order.
func Patterns() []Pattern { return traffic.Patterns() }

// Apps lists the five application traces.
func Apps() []App { return traffic.Apps() }

// NewPatternTraffic builds a Table 1 probabilistic trace generator. A
// rate of 0 selects the calibrated default.
func NewPatternTraffic(m *Mesh, p Pattern, rate float64, seed int64) Generator {
	return traffic.NewProbabilistic(m, p, rate, seed)
}

// Permutation is a classic NoC synthetic pattern (transpose,
// bit-complement, bit-reverse, shuffle), included as extension workloads
// for the routing studies.
type Permutation = traffic.Permutation

// Classic permutation patterns.
const (
	TransposePattern     = traffic.Transpose
	BitComplementPattern = traffic.BitComplement
	BitReversePattern    = traffic.BitReverse
	ShufflePattern       = traffic.Shuffle
)

// NewPermutationTraffic builds a classic permutation-pattern generator
// over the 64-core space.
func NewPermutationTraffic(m *Mesh, p Permutation, rate float64, seed int64) Generator {
	return traffic.NewSynthetic(m, p, rate, seed)
}

// NewAppTraffic builds a synthetic application trace generator.
func NewAppTraffic(m *Mesh, a App, rate float64, seed int64) Generator {
	return traffic.NewAppTrace(m, a, rate, seed)
}

// NewMulticastTraffic augments a base workload with coherence multicasts
// at the given destination-set locality (20 or 50 in the paper).
func NewMulticastTraffic(m *Mesh, base Generator, rate float64, localityPct int, seed int64) Generator {
	return traffic.NewMulticastAugment(m, base, rate, localityPct, seed)
}

// NewCoherenceTraffic builds the directory-protocol generator, whose
// invalidates and fills are the paper's two multicast message types.
func NewCoherenceTraffic(m *Mesh, w CoherenceWorkload, seed int64) *CoherenceProtocol {
	return coherence.New(m, w, seed)
}

// ProfileTraffic dry-runs a fresh generator and returns the inter-router
// message-frequency matrix F(x,y) that drives application-specific
// shortcut selection.
func ProfileTraffic(g Generator, m *Mesh, cycles int64) [][]int64 {
	return traffic.FrequencyMatrix(g, m.N(), cycles)
}

// StaticShortcuts selects the architecture-specific shortcut set
// (Section 3.2.1, max-cost heuristic). Sets are memoized by mesh shape
// and budget; each call returns a fresh slice the caller may modify.
func StaticShortcuts(m *Mesh, budget int) []ShortcutEdge {
	return shortcut.Static(m, budget)
}

// AdaptiveShortcuts selects the application-specific shortcut set
// (Section 3.2.2) for the given RF-enabled routers and traffic profile:
// of the permutation-graph greedy and the region-based sets, the one
// with the lower F(x,y)*W(x,y) cost, the region set on a tie. Sets are
// memoized by content, so a repeated call is cheap; each call returns a
// fresh slice the caller may modify.
func AdaptiveShortcuts(m *Mesh, rfEnabled []int, freq [][]int64, budget int) []ShortcutEdge {
	return shortcut.Adaptive(m, rfEnabled, freq, budget)
}

// BaselineConfig is the plain mesh at the given width.
func BaselineConfig(m *Mesh, w LinkWidth) Config {
	return Config{Mesh: m, Width: w}
}

// StaticConfig overlays the fixed architecture-specific shortcuts.
func StaticConfig(m *Mesh, w LinkWidth) Config {
	return Config{Mesh: m, Width: w, Shortcuts: StaticShortcuts(m, ShortcutBudget)}
}

// AdaptiveConfig overlays application-specific shortcuts selected for the
// given workload profile, with rfRouters access points (25, 50 or 100).
func AdaptiveConfig(m *Mesh, w LinkWidth, rfRouters int, freq [][]int64) Config {
	rf := m.RFPlacement(rfRouters)
	return Config{
		Mesh: m, Width: w, RFEnabled: rf,
		Shortcuts: AdaptiveShortcuts(m, rf, freq, ShortcutBudget),
	}
}

// Simulate drives gen against cfg for opts.Cycles plus drain and returns
// the measurement (latency, power, area, raw counters). Set
// opts.Histograms to also collect latency percentile digests; under
// "go test" an invariant checker rides along automatically.
func Simulate(cfg Config, gen Generator, opts Options) Result {
	return experiments.Run(cfg, gen, opts)
}

// SimulateObserved is Simulate with additional observers attached for
// the duration of the run (latency recorders, link timelines, invariant
// checkers, or custom instrumentation).
func SimulateObserved(cfg Config, gen Generator, opts Options, observers ...Observer) Result {
	return experiments.Run(cfg, gen, opts, observers...)
}

// NewLatencyRecorder returns an empty latency-distribution observer.
func NewLatencyRecorder() *LatencyRecorder { return obs.NewLatencyRecorder() }

// NewLinkTimeline returns a link-occupancy timeline sampling every
// window cycles (default 1000 if window <= 0).
func NewLinkTimeline(window int64) *LinkTimeline { return obs.NewLinkTimeline(window) }

// NewInvariantChecker returns a checker with the default audit period
// and deadlock horizon; it panics (with a dump of the stuck router) on
// the first violated invariant.
func NewInvariantChecker() *InvariantChecker { return obs.NewInvariantChecker() }

// ComputePower converts raw counters to the average-power breakdown.
func ComputePower(cfg Config, s NetStats) PowerBreakdown {
	return power.Compute(noc.New(cfg).Config(), s)
}

// ComputeArea returns the Table 2 area decomposition of a design.
func ComputeArea(cfg Config) AreaBreakdown {
	return power.ComputeArea(noc.New(cfg).Config())
}
