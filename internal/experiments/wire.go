package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Wire layer of the worker-process protocol: a sweep point that can be
// described entirely by serializable data (a GenSpec instead of a
// generator closure) can be shipped to an out-of-process worker. The
// frames themselves are internal/frame's format;
// payloads are JSON because they cross a version boundary only with
// ourselves (parent and child are the same binary) and debuggability on
// a crashed pipe beats compactness.

// Frame kinds on the worker pipe. The parent sends jobs and cancels on
// the child's stdin; the child sends heartbeats and outcomes on stdout.
const (
	FrameJob       byte = 1 // parent -> child: one workerJob (JSON)
	FrameCancel    byte = 2 // parent -> child: cancel the running job
	FrameHeartbeat byte = 3 // child -> parent: liveness while running
	FrameOutcome   byte = 4 // child -> parent: one workerOutcome (JSON)
)

// GenSpec is a serializable description of a traffic generator, so a
// point survives a process boundary and a plan can key its points.
type GenSpec struct {
	// Workload names a probabilistic pattern, an application trace or a
	// permutation pattern (LookupWorkload resolves it).
	Workload string `json:"workload"`

	// Rate and Seed parameterize the base generator. A zero means the
	// Options.WithDefaults default; NewPortableSweepPoint resolves it
	// before it builds or ships the spec, so a child process
	// reconstructs the exact generator the parent fingerprinted.
	Rate float64 `json:"rate"`
	Seed int64   `json:"seed"`

	// Multicast, when set, wraps the base generator in a multicast
	// augmentation with the given rate and locality.
	Multicast         bool    `json:"multicast,omitempty"`
	MulticastRate     float64 `json:"multicast_rate,omitempty"`
	MulticastLocality int     `json:"multicast_locality,omitempty"`
}

// Build constructs a fresh generator for the spec on the given mesh.
func (g GenSpec) Build(m *topology.Mesh) (traffic.Generator, error) {
	mk, err := LookupWorkload(m, g.Workload)
	if err != nil {
		return nil, err
	}
	gen := mk(g.Rate, g.Seed)
	if g.Multicast {
		if g.MulticastLocality <= 0 || g.MulticastLocality > 100 {
			return nil, fmt.Errorf("multicast locality %d%% out of range (1..100)", g.MulticastLocality)
		}
		gen = traffic.NewMulticastAugment(m, gen, g.MulticastRate, g.MulticastLocality, g.Seed)
	}
	return gen, nil
}

// withDefaults resolves a zero Rate and Seed, and with Multicast a zero
// MulticastRate, to the defaults Options.WithDefaults gives them.
func (g GenSpec) withDefaults() GenSpec {
	d := Options{Rate: g.Rate, Seed: g.Seed, MulticastRate: g.MulticastRate}.WithDefaults()
	g.Rate, g.Seed = d.Rate, d.Seed
	if g.Multicast {
		g.MulticastRate = d.MulticastRate
	}
	return g
}

// profile is the workload a shortcut selection for g is made from: g
// without multicast augmentation. The augmentation draws from its own
// RNG and the profile drops multicasts, so both give the same frequency
// matrix, and the adaptive points of one trace share it.
func (g GenSpec) profile() GenSpec {
	g.Multicast, g.MulticastRate, g.MulticastLocality = false, 0, 0
	return g
}

// mustBuild is Build for a spec whose workload is a registered name.
func (g GenSpec) mustBuild(m *topology.Mesh) traffic.Generator {
	gen, err := g.Build(m)
	if err != nil {
		panic(err)
	}
	return gen
}

// LookupWorkload resolves a workload name (case-insensitive) to a
// generator constructor: probabilistic patterns first, then application
// traces, then the permutation patterns (which need the 64 cores of the
// 10x10 floorplan). This is the canonical name registry; the sweep
// service validates request workloads against it.
func LookupWorkload(m *topology.Mesh, name string) (func(rate float64, seed int64) traffic.Generator, error) {
	for _, p := range traffic.Patterns() {
		if strings.EqualFold(p.String(), name) {
			return func(rate float64, seed int64) traffic.Generator {
				return traffic.NewProbabilistic(m, p, rate, seed)
			}, nil
		}
	}
	for _, a := range traffic.Apps() {
		if strings.EqualFold(a.String(), name) {
			return func(rate float64, seed int64) traffic.Generator {
				return traffic.NewAppTrace(m, a, rate, seed)
			}, nil
		}
	}
	for _, p := range traffic.Permutations() {
		if strings.EqualFold(p.String(), name) {
			return func(rate float64, seed int64) traffic.Generator {
				return traffic.NewSynthetic(m, p, rate, seed)
			}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// PointPayload is the complete portable description of a sweep point:
// everything a worker process needs to run it. Config.Mesh is carried
// as dimensions (the mesh's derived structure is deterministic in W×H).
type PointPayload struct {
	MeshW  int        `json:"mesh_w"`
	MeshH  int        `json:"mesh_h"`
	Config noc.Config `json:"config"` // Mesh pointer nil'd on the wire
	Gen    GenSpec    `json:"gen"`
	Opts   Options    `json:"opts"`
}

// Executor dispatches one sweep-point attempt somewhere other than the
// calling goroutine — in practice, to a worker process pool. Execute
// must honor ctx (cancelling the remote attempt, which answers with its
// Interrupted result) and returns *WorkerCrash when the attempt died
// instead of answering.
type Executor interface {
	Execute(ctx context.Context, payload *PointPayload, fingerprint string) (Result, error)
}

// NewPortableSweepPoint builds the standard sweep point: RunContext
// over cfg and a fresh generator of gen per attempt, so a retry replays
// the same stream from cycle 0. The generator is described as data, so
// the point can cross a process boundary: when the supervising
// CheckpointSpec carries an Executor, Run dispatches to it; otherwise it
// runs in-process. The fingerprint takes the rate, seed and multicast
// rate from gen, which drives the traffic, and the rest from opts. A
// zero rate, seed or multicast rate in gen means its default, for the
// simulation as for the fingerprint.
func NewPortableSweepPoint(cfg noc.Config, gen GenSpec, opts Options, meta map[string]string) (SweepPoint, error) {
	gen = gen.withDefaults()
	probe, err := gen.Build(cfg.Mesh)
	if err != nil {
		return SweepPoint{}, err
	}
	fpOpts := opts
	fpOpts.Rate, fpOpts.Seed = gen.Rate, gen.Seed
	if gen.Multicast {
		fpOpts.MulticastRate = gen.MulticastRate
	}
	fp := PointFingerprint(cfg, probe.Name(), fpOpts)
	payload := &PointPayload{
		MeshW:  cfg.Mesh.W,
		MeshH:  cfg.Mesh.H,
		Config: cfg,
		Gen:    gen,
		Opts:   opts,
	}
	payload.Config.Mesh = nil // reattached from MeshW×MeshH on arrival
	return SweepPoint{
		ID:          fp,
		Fingerprint: fp,
		Meta:        meta,
		Cost:        opts.EstimatedCycles(),
		Payload:     payload,
		Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
			if spec.Exec != nil {
				return spec.Exec.Execute(ctx, payload, fp)
			}
			g, err := gen.Build(cfg.Mesh)
			if err != nil {
				return Result{}, err
			}
			return RunContext(ctx, cfg, g, opts)
		},
	}, nil
}

// workerJob is the FrameJob payload.
type workerJob struct {
	Fingerprint string       `json:"fingerprint"`
	Point       PointPayload `json:"point"`

	// MemLimit is the child's soft Go memory limit in bytes
	// (debug.SetMemoryLimit); the child self-terminates with an OOM
	// outcome once its live heap exceeds it. Zero leaves the limit alone.
	MemLimit int64 `json:"mem_limit,omitempty"`

	// HeartbeatMS is the child's heartbeat period while running.
	HeartbeatMS int64 `json:"heartbeat_ms"`

	// Chaos injects a worker-hostile fault ("panic", "alloc", "hang")
	// instead of running the point. Only the chaos harness sets it.
	Chaos string `json:"chaos,omitempty"`
}

// workerOutcome is the FrameOutcome payload.
type workerOutcome struct {
	// Result is MarshalResult's canonical encoding ("" when the attempt
	// produced no result at all). Cancelled attempts carry the partial,
	// Interrupted result alongside Canceled.
	Result json.RawMessage `json:"result,omitempty"`

	Err      string `json:"err,omitempty"`      // "" on success
	Canceled bool   `json:"canceled,omitempty"` // Err is the cancel, not a failure

	// OOM marks a memory-limit self-termination; the child exits right
	// after sending this frame. Evidence carries its final runtime state.
	OOM      bool             `json:"oom,omitempty"`
	Evidence *RuntimeEvidence `json:"evidence,omitempty"`
}

// RuntimeEvidence is the runtime state captured at failure time and
// attached to crash dumps, so an OOM kill is distinguishable from a
// panic when quarantine serves the dump as 422 evidence.
type RuntimeEvidence struct {
	GoMemLimit int64  `json:"gomemlimit,omitempty"` // bytes; 0 when unlimited
	HeapAlloc  uint64 `json:"heap_alloc,omitempty"`
	HeapSys    uint64 `json:"heap_sys,omitempty"`
	TotalAlloc uint64 `json:"total_alloc,omitempty"`
	NumGC      uint32 `json:"num_gc,omitempty"`

	// Filled by the supervisor for worker deaths.
	Worker     bool   `json:"worker,omitempty"`
	ExitCode   int    `json:"exit_code,omitempty"`
	Signal     string `json:"signal,omitempty"`
	StderrTail string `json:"stderr_tail,omitempty"`
}

// captureEvidence snapshots the current process's runtime state.
func captureEvidence() *RuntimeEvidence {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ev := &RuntimeEvidence{
		HeapAlloc:  ms.HeapAlloc,
		HeapSys:    ms.HeapSys,
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
	}
	// SetMemoryLimit with a negative argument reports the current limit
	// without changing it; math.MaxInt64 means "no limit set".
	if lim := debug.SetMemoryLimit(-1); lim != math.MaxInt64 {
		ev.GoMemLimit = lim
	}
	return ev
}

// WorkerCrash reports a worker process that died — or was killed by its
// supervisor — instead of returning an outcome for the dispatched
// point. The supervisor converts it into the same crash-dump +
// failed-PointOutcome path an in-process panic takes.
type WorkerCrash struct {
	Reason     string // "exited unexpectedly", "heartbeat lost", "deadline exceeded", "memory limit exceeded"
	OOM        bool
	ExitCode   int    // -1 when unknown
	Signal     string // terminating signal name, "" if none
	StderrTail string // last stderr bytes from the worker
	Evidence   *RuntimeEvidence
}

// Error implements error.
func (e *WorkerCrash) Error() string {
	s := "experiments: worker " + e.Reason
	if e.Signal != "" {
		s += " (signal: " + e.Signal + ")"
	} else if e.ExitCode >= 0 {
		s += fmt.Sprintf(" (exit status %d)", e.ExitCode)
	}
	return s
}
