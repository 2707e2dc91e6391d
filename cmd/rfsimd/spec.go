package main

// The wire format of the sweep service: a SweepRequest is a list of
// PointSpecs, each naming one design point and workload the way the
// rfsim CLI does (design kind + width + workload name), plus the run
// knobs that shape results. Every spec compiles to an
// experiments.SweepPoint whose fingerprint is the service's cache key.

import (
	"errors"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SweepRequest is the POST /v1/sweep body.
type SweepRequest struct {
	Points []PointSpec `json:"points"`

	// DeadlineMS bounds the whole job's wall-clock time in
	// milliseconds, queue wait included; past it the job is cancelled
	// and running points stop. Zero falls back to the
	// X-Sweep-Deadline-Ms header, then to the server's -max-deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Priority selects the admission class: "interactive" (the
	// default) may use the whole queue, "batch" is shed once only the
	// interactive reserve remains. Falls back to the X-Priority header.
	Priority string `json:"priority,omitempty"`
}

// PointSpec names one simulation. Zero-valued knobs take the same
// defaults as the CLIs (16B width, uniform workload defaults via
// experiments.Options.WithDefaults).
type PointSpec struct {
	// Design selects the shortcut provisioning: baseline, static,
	// wire-static or adaptive. Default baseline.
	Design string `json:"design,omitempty"`

	// WidthBytes is the mesh link width: 4, 8 or 16 (default).
	WidthBytes int `json:"width_bytes,omitempty"`

	// RFRouters is the access-point count for adaptive designs (25, 50
	// or 100; default 50).
	RFRouters int `json:"rf_routers,omitempty"`

	// Multicast selects delivery for multicast messages: none (default,
	// unicast expansion), vct or rf. Any value other than none augments
	// the workload with multicast traffic.
	Multicast string `json:"multicast,omitempty"`

	// MulticastRate and MulticastLocality shape the augmented multicast
	// traffic (defaults 0.05 and 50).
	MulticastRate     float64 `json:"multicast_rate,omitempty"`
	MulticastLocality int     `json:"multicast_locality,omitempty"`

	// Workload names a probabilistic trace (uniform, unidf, bidf,
	// hotbidf, 1hotspot, 2hotspot, 4hotspot), an application trace
	// (x264, bodytrack, fluidanimate, streamcluster, specjbb) or a
	// permutation pattern (transpose, bitcomplement, bitreverse,
	// shuffle). Default uniform.
	Workload string `json:"workload,omitempty"`

	// Rate is the injection rate per component per cycle (default
	// traffic.DefaultRate).
	Rate float64 `json:"rate,omitempty"`

	// Seed makes the run reproducible and is part of the cache key.
	Seed int64 `json:"seed,omitempty"`

	// Cycles is the measured injection window (default 60000); the
	// server caps it at -max-cycles.
	Cycles int64 `json:"cycles,omitempty"`

	// DrainCycles bounds post-injection draining (default 400000).
	DrainCycles int64 `json:"drain_cycles,omitempty"`

	// Histograms adds p50/p90/p99/max latency digests to the result (and
	// to the cache key, since they change the Result payload).
	Histograms bool `json:"histograms,omitempty"`

	// Low-level overrides, validated by Config.Validate. The router
	// fields travel on the experiments.Point; the fault fields are set
	// on the built noc.Config.
	VCsPerClass   int     `json:"vcs_per_class,omitempty"`
	BufDepth      int     `json:"buf_depth,omitempty"`
	EscapeTimeout int64   `json:"escape_timeout,omitempty"`
	MeshBER       float64 `json:"mesh_ber,omitempty"`
	RFBER         float64 `json:"rf_ber,omitempty"`
	FaultSeed     int64   `json:"fault_seed,omitempty"`
}

// specLimits are the server-side caps a spec must respect; they bound
// the work one request can demand.
type specLimits struct {
	maxPoints int
	maxCycles int64
}

// compile turns one spec into a runnable sweep point. All validation
// errors — spec-level and noc.Config.Validate — are accumulated and
// joined, so a bad request names every problem at once.
func (p PointSpec) compile(m *topology.Mesh, lim specLimits, check bool) (experiments.SweepPoint, error) {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	design := p.Design
	if design == "" {
		design = "baseline"
	}
	kind, err := experiments.ParseDesignKind(design)
	if err != nil {
		errs = append(errs, err)
	}

	width := p.WidthBytes
	if width == 0 {
		width = 16
	}
	if !tech.LinkWidth(width).Valid() {
		fail("invalid width_bytes %d (want 16, 8 or 4)", width)
	}

	mcName := p.Multicast
	if mcName == "" {
		mcName = "none"
	}
	mode, err := noc.ParseMulticastMode(mcName)
	if err != nil {
		errs = append(errs, err)
	}

	workload := p.Workload
	if workload == "" {
		workload = traffic.Uniform.String()
	}
	if _, err := experiments.LookupWorkload(m, workload); err != nil {
		errs = append(errs, err)
	}

	if p.Rate < 0 {
		fail("rate must be non-negative, got %g", p.Rate)
	}
	if p.Cycles < 0 {
		fail("cycles must be non-negative, got %d", p.Cycles)
	}
	if lim.maxCycles > 0 && p.Cycles > lim.maxCycles {
		fail("cycles %d exceeds the server cap %d", p.Cycles, lim.maxCycles)
	}
	if p.DrainCycles < 0 {
		fail("drain_cycles must be non-negative, got %d", p.DrainCycles)
	}
	if p.MulticastRate < 0 || p.MulticastRate > 1 {
		fail("multicast_rate must be in [0,1], got %g", p.MulticastRate)
	}
	if p.MulticastLocality < 0 || p.MulticastLocality > 100 {
		fail("multicast_locality must be in [0,100], got %d", p.MulticastLocality)
	}

	opts := experiments.Options{
		Cycles:        p.Cycles,
		DrainCycles:   p.DrainCycles,
		Rate:          p.Rate,
		MulticastRate: p.MulticastRate,
		Seed:          p.Seed,
		Histograms:    p.Histograms,
		Check:         check,
	}

	if len(errs) > 0 {
		return experiments.SweepPoint{}, errors.Join(errs...)
	}

	locality := p.MulticastLocality
	if locality == 0 {
		locality = 50
	}
	// The generator is described as data (GenSpec) rather than a
	// closure, so the compiled point is portable: under -isolate the
	// daemon ships it to a worker process, which rebuilds the exact
	// generator from the post-default parameters.
	def := opts.WithDefaults()
	gen := experiments.GenSpec{
		Workload: workload,
		Rate:     def.Rate,
		Seed:     def.Seed,
	}
	// Any named mode, expand included, carries multicast traffic.
	if mcName != "none" {
		gen.Multicast = true
		gen.MulticastRate = def.MulticastRate
		gen.MulticastLocality = locality
	}
	pt := experiments.Point{
		Design: experiments.Design{
			Kind: kind, Width: tech.LinkWidth(width),
			RFRouters: p.RFRouters, Multicast: mode,
		},
		Gen:         gen,
		VCsPerClass: p.VCsPerClass, BufDepth: p.BufDepth, EscapeTimeout: p.EscapeTimeout,
	}
	cfg, err := experiments.BuildSpec(m, pt, 0)
	if err != nil {
		return experiments.SweepPoint{}, err
	}
	cfg.Fault.MeshBER = p.MeshBER
	cfg.Fault.RFBER = p.RFBER
	cfg.Fault.Seed = p.FaultSeed
	if err := cfg.Validate(); err != nil {
		return experiments.SweepPoint{}, err
	}

	probe, err := gen.Build(m)
	if err != nil {
		return experiments.SweepPoint{}, err
	}
	meta := map[string]string{
		"design":   pt.Design.Name(),
		"workload": probe.Name(),
		"seed":     fmt.Sprint(def.Seed),
		// The design's content address keys the poison-config
		// quarantine: a panic is a property of the configuration, so the
		// breaker must aggregate across seeds and workloads.
		"config": cfg.Fingerprint(),
	}
	// The fingerprint doubles as the point ID (NewPortableSweepPoint sets
	// both), so crash dumps are keyed by content, and the quarantine's
	// dump reference names the point that panicked.
	return experiments.NewPortableSweepPoint(cfg, gen, opts, meta)
}

// compileRequest compiles every point, joining all per-point errors
// (prefixed with the point index) into one 400-able error.
func compileRequest(req SweepRequest, m *topology.Mesh, lim specLimits, check bool) ([]experiments.SweepPoint, error) {
	if len(req.Points) == 0 {
		return nil, errors.New("sweep has no points")
	}
	if lim.maxPoints > 0 && len(req.Points) > lim.maxPoints {
		return nil, fmt.Errorf("sweep has %d points, server cap is %d", len(req.Points), lim.maxPoints)
	}
	var errs []error
	pts := make([]experiments.SweepPoint, 0, len(req.Points))
	for i, spec := range req.Points {
		pt, err := spec.compile(m, lim, check)
		if err != nil {
			errs = append(errs, fmt.Errorf("point %d: %w", i, err))
			continue
		}
		pts = append(pts, pt)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return pts, nil
}
