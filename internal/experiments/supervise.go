package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/noc"
	"repro/internal/sweepcache"
	"repro/internal/traffic"
)

// SweepPoint is one independently runnable simulation in a supervised
// sweep.
type SweepPoint struct {
	// ID names the point; it keys the crash dump and must be unique
	// within a sweep and safe as a file name.
	ID string

	// Fingerprint is the point's content address (PointFingerprint):
	// equal fingerprints mean equal results. It keys the memoization
	// cache when SuperviseConfig.Cache is set and correlates crash dumps
	// and partial-failure errors with cache entries and NDJSON streams.
	// Empty disables memoization for this point.
	Fingerprint string

	// Meta is free-form descriptive context (design, workload, seed ...)
	// carried into crash dumps.
	Meta map[string]string

	// Cost is the point's admission-time cost estimate in simulated
	// cycles (Options.EstimatedCycles). Zero means unknown; the sweep
	// service sums Cost over a request to enforce its per-job ceiling.
	Cost int64

	// Run executes the point from cycle 0. It must honor ctx and should
	// pass spec through to RunContext (or equivalent), so the supervisor's
	// hooks reach the network and the executor.
	Run func(ctx context.Context, spec CheckpointSpec) (Result, error)

	// Payload, when non-nil, is the point's portable wire description
	// (set by NewPortableSweepPoint): what an Executor ships to a worker
	// process. Closure-built points (NewSweepPoint) leave it nil and can
	// only run in-process.
	Payload *PointPayload
}

// NewSweepPoint builds the standard point: RunContext over a config and
// a deterministic generator factory (a fresh generator per attempt, so a
// retry replays the same stream from cycle 0). The fingerprint is
// derived from the config, the generator's name and the run options.
func NewSweepPoint(id string, cfg noc.Config, mkGen func() traffic.Generator, opts Options, meta map[string]string) SweepPoint {
	return SweepPoint{
		ID:          id,
		Fingerprint: PointFingerprint(cfg, mkGen().Name(), opts),
		Meta:        meta,
		Cost:        opts.EstimatedCycles(),
		Run: func(ctx context.Context, spec CheckpointSpec) (Result, error) {
			return RunContext(ctx, cfg, mkGen(), opts, spec)
		},
	}
}

// PointOutcome is the per-point verdict of a supervised sweep.
type PointOutcome struct {
	ID          string
	Fingerprint string // the point's content address ("" when unset)
	Result      Result
	Err         error  // nil on success
	Attempts    int    // simulation attempts by this call (0 on a cache hit)
	Cached      bool   // Result came from the cache or a joined in-flight computation
	Recovered   bool   // a corrupt cached result was dropped and recomputed
	Panicked    bool   // at least one attempt panicked
	CrashDump   string // path of the last crash dump, "" if none
}

// SuperviseConfig tunes the supervisor.
type SuperviseConfig struct {
	// Workers bounds parallelism; defaults to the package Workers value.
	Workers int

	// Retries is how many times a failed point is re-attempted (so a
	// point runs at most Retries+1 times). Context cancellation is never
	// retried.
	Retries int

	// RetryBackoff is the wait before the first retry, doubling per
	// subsequent retry. Default 100ms.
	RetryBackoff time.Duration

	// PointTimeout bounds each attempt's wall-clock time. Zero means no
	// per-point limit. A timed-out attempt is a failed attempt: the retry
	// starts again from cycle 0, so a point that cannot finish within
	// PointTimeout fails after Retries+1 attempts with an error wrapping
	// context.DeadlineExceeded.
	PointTimeout time.Duration

	// Dir is where crash dumps (<id>.crash.json) are written. Empty
	// disables them.
	Dir string

	// Cache, when non-nil, memoizes successful results by point
	// fingerprint: a point whose fingerprint is already cached returns
	// instantly with Cached set, and concurrent points with equal
	// fingerprints — within one Supervise call or across calls sharing
	// the cache — are single-flighted so each unique fingerprint is
	// simulated exactly once. Points with an empty Fingerprint bypass the
	// cache. Failures are never cached.
	Cache *sweepcache.Cache

	// OnOutcome, when non-nil, is invoked with each point's index and
	// final outcome as soon as that point settles, enabling incremental
	// streaming while the rest of the sweep runs. It is called from
	// worker goroutines and must be safe for concurrent use.
	OnOutcome func(index int, out PointOutcome)

	// Exec, when non-nil, dispatches portable points (NewPortableSweepPoint)
	// to an out-of-process executor instead of running them on this
	// process's goroutines. A worker death (*WorkerCrash) is treated like
	// an in-process panic: crash dump, Panicked outcome, retry from
	// cycle 0. Non-portable points ignore it and run in-process.
	Exec Executor
}

func (sc SuperviseConfig) withDefaults() SuperviseConfig {
	if sc.Workers <= 0 {
		sc.Workers = Workers
	}
	if sc.RetryBackoff <= 0 {
		sc.RetryBackoff = 100 * time.Millisecond
	}
	return sc
}

// CrashDump is the record written when a sweep point panics: enough to
// reproduce (config fingerprint via meta + seed) and to triage (cycle,
// audit, stack).
type CrashDump struct {
	ID          string            `json:"id"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	Meta        map[string]string `json:"meta,omitempty"`
	Attempt     int               `json:"attempt"`
	Panic       string            `json:"panic"`
	Stack       string            `json:"stack"`
	// Cycle and Audit describe the network at the moment of the panic;
	// Cycle is -1 when the panic struck before network construction (and
	// always for worker-process deaths, whose network died with them).
	Cycle int64            `json:"cycle"`
	Audit *noc.AuditReport `json:"audit,omitempty"`

	// Evidence is the runtime state at failure time: memory accounting,
	// the configured GOMEMLIMIT and — for worker-process deaths — the
	// exit status, terminating signal and a stderr tail. It is what makes
	// an OOM kill distinguishable from a panic in quarantine evidence.
	Evidence *RuntimeEvidence `json:"evidence,omitempty"`
}

// Supervise runs a sweep under fault isolation: points execute on a
// bounded worker pool; a panicking point is caught, dumped to
// Dir/<id>.crash.json and retried from cycle 0 with exponential backoff;
// a point that keeps failing is recorded and the rest of the sweep
// completes. The outcome slice is index-aligned
// with points. The returned error is non-nil if any point ultimately
// failed (partial results are still in the outcomes) or if ctx was
// cancelled.
func Supervise(ctx context.Context, sc SuperviseConfig, points []SweepPoint) ([]PointOutcome, error) {
	sc = sc.withDefaults()
	outcomes := make([]PointOutcome, len(points))

	workers := sc.Workers
	if workers > len(points) {
		workers = len(points)
	}
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range next {
				supervisePoint(ctx, sc, points[i], &outcomes[i])
				if sc.OnOutcome != nil {
					sc.OnOutcome(i, outcomes[i])
				}
				done <- struct{}{}
			}
		}()
	}
	go func() {
		for i := range points {
			next <- i
		}
		close(next)
	}()
	for range points {
		<-done
	}

	var failures []string
	for i := range outcomes {
		if outcomes[i].Err != nil {
			failures = append(failures, describeFailure(&outcomes[i]))
		}
	}
	if err := ctx.Err(); err != nil {
		return outcomes, err
	}
	if len(failures) > 0 {
		return outcomes, fmt.Errorf("experiments: %d of %d sweep points failed: %s",
			len(failures), len(points), strings.Join(failures, "; "))
	}
	return outcomes, nil
}

// describeFailure names a failed point by ID and fingerprint, so
// partial-outcome errors correlate with cache keys, crash dumps and
// NDJSON stream entries instead of leaving only a positional index.
func describeFailure(o *PointOutcome) string {
	if o.Fingerprint == "" {
		return o.ID
	}
	return fmt.Sprintf("%s (fingerprint %s)", o.ID, o.Fingerprint)
}

// supervisePoint settles one point: through the memoization cache when
// one is configured (exactly-once per fingerprint, single-flighted), or
// by running the retry loop directly.
//
// A cached blob that fails to deserialize (bit rot, a chaos-injected
// corruption) is treated as a disk/memory fault, not a point failure:
// the poisoned entry is invalidated and the point recomputed once, so
// cache corruption degrades to a cache miss instead of an error the
// client can do nothing about. The outcome is marked Recovered.
func supervisePoint(ctx context.Context, sc SuperviseConfig, pt SweepPoint, out *PointOutcome) {
	out.ID = pt.ID
	out.Fingerprint = pt.Fingerprint
	if sc.Cache == nil || pt.Fingerprint == "" {
		runPointAttempts(ctx, sc, pt, out)
		return
	}
	for pass := 0; ; pass++ {
		out.Cached = false
		blob, hit, err := sc.Cache.Do(ctx, pt.Fingerprint, func() ([]byte, error) {
			runPointAttempts(ctx, sc, pt, out)
			if out.Err != nil {
				return nil, out.Err
			}
			return MarshalResult(out.Result)
		})
		if !hit {
			// Leader: out was filled in by runPointAttempts; a marshal
			// failure is the only error not already recorded there.
			if err != nil && out.Err == nil {
				out.Err = err
			}
			return
		}
		out.Cached = true
		if err != nil {
			out.Err = err
			return
		}
		res, uerr := UnmarshalResult(blob)
		if uerr == nil {
			out.Result = res
			out.Err = nil
			return
		}
		if pass > 0 {
			// Corrupt twice in a row: something is systematically wrong
			// (a broken MarshalResult, not a flipped bit); surface it.
			out.Err = uerr
			return
		}
		sc.Cache.Invalidate(pt.Fingerprint)
		out.Recovered = true
	}
}

// runPointAttempts is the retry loop: each attempt is panic-guarded and
// starts from cycle 0; failed attempts back off exponentially.
func runPointAttempts(ctx context.Context, sc SuperviseConfig, pt SweepPoint, out *PointOutcome) {
	var net *noc.Network
	spec := CheckpointSpec{Exec: sc.Exec, OnNetwork: func(n *noc.Network) { net = n }}

	for attempt := 0; attempt <= sc.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if out.Err == nil {
				out.Err = err
			}
			return
		}
		out.Attempts++
		net = nil
		res, err := runPointGuarded(ctx, sc, pt, spec, attempt, &net, out)
		if err == nil {
			out.Result = res
			out.Err = nil
			return
		}
		out.Err = err
		if ctx.Err() != nil {
			return // parent cancelled: not the point's fault, don't retry
		}
		if attempt < sc.Retries {
			backoff := sc.RetryBackoff << uint(attempt)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return
			}
		}
	}
}

// runPointGuarded runs one attempt with panic isolation. A panic becomes
// an error after the crash dump is written.
func runPointGuarded(ctx context.Context, sc SuperviseConfig, pt SweepPoint, spec CheckpointSpec, attempt int, net **noc.Network, out *PointOutcome) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			out.Panicked = true
			dump := CrashDump{
				ID:          pt.ID,
				Fingerprint: pt.Fingerprint,
				Meta:        pt.Meta,
				Attempt:     attempt,
				Panic:       fmt.Sprint(r),
				Stack:       string(debug.Stack()),
				Cycle:       -1,
				Evidence:    captureEvidence(),
			}
			if n := *net; n != nil {
				dump.Cycle = n.Now()
				audit := n.Audit()
				dump.Audit = &audit
			}
			if path := writeCrashDump(sc.Dir, pt.ID, dump); path != "" {
				out.CrashDump = path
			}
			err = fmt.Errorf("experiments: point %s panicked: %v", pt.ID, r)
		}
	}()
	pctx := ctx
	if sc.PointTimeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, sc.PointTimeout)
		defer cancel()
	}
	res, err = pt.Run(pctx, spec)

	// A worker-process death takes the same path as an in-process panic:
	// dump, Panicked, retry, quarantine. The dump's Cycle is
	// -1 (the network died with the worker) and its Stack is the worker's
	// stderr tail, which holds the Go runtime's own panic/fatal output.
	var wc *WorkerCrash
	if errors.As(err, &wc) {
		out.Panicked = true
		ev := wc.Evidence
		if ev == nil {
			ev = &RuntimeEvidence{}
		}
		ev.Worker = true
		ev.ExitCode = wc.ExitCode
		ev.Signal = wc.Signal
		ev.StderrTail = wc.StderrTail
		dump := CrashDump{
			ID:          pt.ID,
			Fingerprint: pt.Fingerprint,
			Meta:        pt.Meta,
			Attempt:     attempt,
			Panic:       "worker crash: " + wc.Reason,
			Stack:       wc.StderrTail,
			Cycle:       -1,
			Evidence:    ev,
		}
		if path := writeCrashDump(sc.Dir, pt.ID, dump); path != "" {
			out.CrashDump = path
		}
		err = fmt.Errorf("experiments: point %s worker crashed: %s", pt.ID, wc.Reason)
	}
	return res, err
}

// writeCrashDump persists the dump, returning its path ("" when Dir is
// unset or the write failed — a crash dump must never mask the crash).
func writeCrashDump(dir, id string, dump CrashDump) string {
	if dir == "" {
		return ""
	}
	blob, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return ""
	}
	path := filepath.Join(dir, id+".crash.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return ""
	}
	return path
}
