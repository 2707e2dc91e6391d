// Command rfsimd serves RF-interconnect sweep simulations over
// HTTP/JSON as a long-running service.
//
// Usage:
//
//	rfsimd [-addr :8080] [-queue N] [-active N] [-workers N] [-retries N]
//	       [-point-timeout D] [-max-points N] [-max-cycles N]
//	       [-max-deadline D] [-max-job-cycles N] [-interactive-reserve N]
//	       [-quarantine-failures K] [-quarantine-cooldown D]
//	       [-cache-entries N] [-dir DIR] [-check]
//	       [-read-header-timeout D] [-read-timeout D] [-idle-timeout D]
//	       [-gc-max-bytes N] [-gc-max-age D] [-gc-interval D]
//	       [-isolate] [-worker-mem N] [-worker-deadline D]
//	       [-results-keep D]
//	rfsimd -worker   (internal: spawned by the daemon under -isolate)
//
// Serve mode: clients POST sweep specs to /v1/sweep and read per-point
// outcomes back as an NDJSON stream while the sweep is still running.
// Admission control bounds the job queue at -queue (excess requests get
// 429 with a load-derived Retry-After); batch-priority jobs are shed
// earlier, once only the -interactive-reserve tail of the queue
// remains. At most -active sweeps run at once, each fanning its points
// across a -workers supervisor pool. A point attempt that outlives
// -point-timeout fails and is retried from cycle 0 (up to -retries
// times), so a point that cannot finish within -point-timeout fails
// with a deadline error. Per-request deadlines (spec
// deadline_ms or the X-Sweep-Deadline-Ms header, capped by
// -max-deadline) cancel overdue jobs; -max-job-cycles rejects oversized
// sweeps with 413 at admission. Configs that keep panicking the
// simulator are quarantined by a per-config circuit breaker
// (-quarantine-failures panics trip it, -quarantine-cooldown later a
// single probe retries) and answered 422 with the crash-dump reference.
// Results are memoized in a content-addressed cache keyed by design
// fingerprint + seed. When -dir is set, a background janitor enforces
// -gc-max-bytes / -gc-max-age quotas over crash dumps and settled
// result logs (oldest first, in-flight points never deleted). GET
// /v1/metrics reports service, cache and janitor counters; GET /readyz
// turns 503 before the queue saturates; SIGINT/SIGTERM cancels running
// points and leaves their jobs' result logs open, so a restarted server
// with the same -dir replays them.
//
// Crash-only mode: with -isolate every simulation attempt runs in a
// supervised child process (this executable re-exec'd with -worker)
// that heartbeats over a framed pipe; the daemon SIGKILLs workers that
// stop heartbeating or overrun -worker-deadline, and a worker whose
// heap passes -worker-mem self-terminates with an OOM crash dump — so
// a pathological config kills a disposable child, never the service.
// With -dir, every accepted sweep's request is fsync'd into the header
// of its per-job result log before it runs, and the log is sealed or
// settled when the job ends; a daemon that dies mid-job (even kill -9)
// replays the logs still open at next boot, so an accepted job is
// eventually simulated exactly once even across crashes. The finished
// point is the unit of durability: points already in the log or the
// result cache are not re-run, and a point that was running re-runs
// from cycle 0, which gives the same bytes because points are
// deterministic. -journal is accepted for compatibility and ignored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/janitor"
)

type daemonFlags struct {
	addr         string
	queue        int
	active       int
	workers      int
	retries      int
	pointTimeout time.Duration
	maxPoints    int
	maxCycles    int64
	cacheEntries int
	dir          string
	check        bool

	// Self-protection knobs (PR 7).
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
	maxDeadline       time.Duration
	maxJobCycles      int64
	intReserve        int
	quarFailures      int
	quarCooldown      time.Duration
	gcMaxBytes        int64
	gcMaxAge          time.Duration
	gcInterval        time.Duration

	// Crash-only knobs (PR 8).
	worker         bool
	isolate        bool
	workerMem      int64
	workerDeadline time.Duration

	// Exactly-once delivery knobs (PR 9).
	resultsKeep time.Duration

	// Test seams, not flags: the worker argv and extra environment
	// (tests re-exec the test binary gated by RFSIMD_TEST_WORKER=1;
	// production resolves this executable + "-worker").
	workerCommand []string
	workerEnv     []string
}

func (f *daemonFlags) validate() error {
	var errs []error
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if f.queue <= 0 {
		fail("-queue must be positive, got %d", f.queue)
	}
	if f.active <= 0 {
		fail("-active must be positive, got %d", f.active)
	}
	if f.workers < 0 {
		fail("-workers must be non-negative, got %d", f.workers)
	}
	if f.retries < 0 {
		fail("-retries must be non-negative, got %d", f.retries)
	}
	if f.pointTimeout < 0 {
		fail("-point-timeout must be non-negative, got %v", f.pointTimeout)
	}
	if f.maxPoints <= 0 {
		fail("-max-points must be positive, got %d", f.maxPoints)
	}
	if f.maxCycles < 0 {
		fail("-max-cycles must be non-negative, got %d", f.maxCycles)
	}
	if f.cacheEntries < 0 {
		fail("-cache-entries must be non-negative, got %d", f.cacheEntries)
	}
	if f.readHeaderTimeout < 0 {
		fail("-read-header-timeout must be non-negative, got %v", f.readHeaderTimeout)
	}
	if f.readTimeout < 0 {
		fail("-read-timeout must be non-negative, got %v", f.readTimeout)
	}
	if f.idleTimeout < 0 {
		fail("-idle-timeout must be non-negative, got %v", f.idleTimeout)
	}
	if f.maxDeadline < 0 {
		fail("-max-deadline must be non-negative, got %v", f.maxDeadline)
	}
	if f.maxJobCycles < 0 {
		fail("-max-job-cycles must be non-negative, got %d", f.maxJobCycles)
	}
	if f.intReserve >= f.queue && f.queue > 0 {
		fail("-interactive-reserve %d must be smaller than -queue %d", f.intReserve, f.queue)
	}
	if f.quarFailures <= 0 {
		fail("-quarantine-failures must be positive, got %d", f.quarFailures)
	}
	if f.quarCooldown <= 0 {
		fail("-quarantine-cooldown must be positive, got %v", f.quarCooldown)
	}
	if f.gcMaxBytes < 0 {
		fail("-gc-max-bytes must be non-negative, got %d", f.gcMaxBytes)
	}
	if f.gcMaxAge < 0 {
		fail("-gc-max-age must be non-negative, got %v", f.gcMaxAge)
	}
	if f.gcInterval <= 0 {
		fail("-gc-interval must be positive, got %v", f.gcInterval)
	}
	if f.workerMem < 0 {
		fail("-worker-mem must be non-negative, got %d", f.workerMem)
	}
	if f.workerDeadline < 0 {
		fail("-worker-deadline must be non-negative, got %v", f.workerDeadline)
	}
	if f.workerMem > 0 && !f.isolate {
		fail("-worker-mem requires -isolate (there is no worker process to limit)")
	}
	if f.workerDeadline > 0 && !f.isolate {
		fail("-worker-deadline requires -isolate (there is no worker process to kill)")
	}
	if f.resultsKeep < 0 {
		fail("-results-keep must be non-negative, got %v", f.resultsKeep)
	}
	return errors.Join(errs...)
}

func (f *daemonFlags) serverConfig() serverConfig {
	return serverConfig{
		maxQueue:           f.queue,
		interactiveReserve: f.intReserve,
		maxActive:          f.active,
		workers:            f.workers,
		retries:            f.retries,
		pointTimeout:       f.pointTimeout,
		maxDeadline:        f.maxDeadline,
		maxJobCycles:       f.maxJobCycles,
		dir:                f.dir,
		maxPoints:          f.maxPoints,
		maxCycles:          f.maxCycles,
		cacheEntries:       f.cacheEntries,
		quarK:              f.quarFailures,
		quarCooldown:       f.quarCooldown,
		check:              f.check,
		isolate:            f.isolate,
		workerMem:          f.workerMem,
		workerDeadline:     f.workerDeadline,
		workerCommand:      f.workerCommand,
		workerEnv:          f.workerEnv,
		resultsKeep:        f.resultsKeep,
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var f daemonFlags
	fs := flag.NewFlagSet("rfsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.addr, "addr", ":8080", "listen address")
	fs.IntVar(&f.queue, "queue", 32, "admission bound: max queued-or-running jobs before 429")
	fs.IntVar(&f.active, "active", 2, "max concurrently running sweeps")
	fs.IntVar(&f.workers, "workers", 0, "supervisor worker pool size per sweep (0 = default)")
	fs.IntVar(&f.retries, "retries", 1, "retry budget per failed sweep point")
	fs.DurationVar(&f.pointTimeout, "point-timeout", 0, "wall-clock budget per point attempt (0 = none)")
	fs.IntVar(&f.maxPoints, "max-points", 256, "max points in one sweep request")
	fs.Int64Var(&f.maxCycles, "max-cycles", 0, "max cycles a point may request (0 = unlimited)")
	fs.IntVar(&f.cacheEntries, "cache-entries", 4096, "result cache capacity in entries (0 = unbounded)")
	fs.StringVar(&f.dir, "dir", "", "directory for per-job result logs and crash dumps (empty = disabled)")
	fs.BoolVar(&f.check, "check", false, "attach an invariant checker to every simulation")
	fs.DurationVar(&f.readHeaderTimeout, "read-header-timeout", 5*time.Second, "http: time budget for reading request headers (slow-loris guard)")
	fs.DurationVar(&f.readTimeout, "read-timeout", 0, "http: time budget for reading one request's headers+body (0 = none); the server clears the deadline once the body is decoded, so sweeps may stream longer than this")
	fs.DurationVar(&f.idleTimeout, "idle-timeout", 2*time.Minute, "http: keep-alive idle connection timeout")
	fs.DurationVar(&f.maxDeadline, "max-deadline", 0, "cap on (and default for) per-request deadlines (0 = none)")
	fs.Int64Var(&f.maxJobCycles, "max-job-cycles", 0, "per-job cost ceiling in estimated simulated cycles; oversized sweeps get 413 (0 = unlimited)")
	fs.IntVar(&f.intReserve, "interactive-reserve", -1, "queue slots reserved for interactive jobs; batch is shed past queue-reserve (-1 = queue/4, 0 = none)")
	fs.IntVar(&f.quarFailures, "quarantine-failures", 3, "panicking failures before a config's circuit breaker opens")
	fs.DurationVar(&f.quarCooldown, "quarantine-cooldown", time.Minute, "open-breaker cooldown before a half-open probe is admitted")
	fs.Int64Var(&f.gcMaxBytes, "gc-max-bytes", 0, "janitor: byte quota over crash dumps and settled result logs in -dir (0 = no byte quota)")
	fs.DurationVar(&f.gcMaxAge, "gc-max-age", 0, "janitor: delete artifacts older than this (0 = no age quota)")
	fs.DurationVar(&f.gcInterval, "gc-interval", 30*time.Second, "janitor: sweep cadence")
	fs.BoolVar(&f.worker, "worker", false, "run as a sweep worker child process (internal: the daemon re-execs itself with this flag)")
	fs.BoolVar(&f.isolate, "isolate", false, "run every simulation attempt in a supervised worker process (crash-only mode)")
	fs.Int64Var(&f.workerMem, "worker-mem", 0, "per-worker soft memory limit in bytes; over it the worker self-terminates with an OOM crash dump (0 = none, requires -isolate)")
	fs.DurationVar(&f.workerDeadline, "worker-deadline", 0, "hard wall-clock budget per worker attempt before SIGKILL (0 = none, requires -isolate)")
	fs.String("journal", "", "ignored (deprecated): accepted sweeps survive a crash through their result logs in -dir")
	fs.DurationVar(&f.resultsKeep, "results-keep", 5*time.Minute, "how long an idle job's result log stays pinned after its last producer or reader (0 = default 5m)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if f.worker {
		// Worker mode: speak the frame protocol on stdin/stdout until EOF.
		// Everything else about the flag set is irrelevant in the child.
		return experiments.WorkerMain(os.Stdin, stdout, stderr)
	}
	if err := f.validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if err := serve(&f, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "rfsimd: %v\n", err)
		return 1
	}
	return 0
}

// serve runs the HTTP service until SIGINT/SIGTERM, then drains:
// in-flight points are cancelled, their jobs' result logs stay open for
// the next boot to replay, and the server shuts down gracefully.
func serve(f *daemonFlags, stdout, stderr io.Writer) error {
	if f.dir != "" {
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
	}

	// drainCtx cancels on the first signal; running points see it and
	// stop.
	drainCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	srv, err := newServer(drainCtx, f.serverConfig())
	if err != nil {
		return err
	}
	defer srv.close()

	// The disk-quota janitor runs whenever there is a directory to
	// protect and at least one quota to enforce. In-flight points and
	// live, recent or replay-pending result logs are pinned through the
	// server.
	if f.dir != "" && (f.gcMaxBytes > 0 || f.gcMaxAge > 0) {
		jan, jerr := janitor.New(janitor.Config{
			Dir:      f.dir,
			MaxBytes: f.gcMaxBytes,
			MaxAge:   f.gcMaxAge,
			Interval: f.gcInterval,
			Pinned:   srv.artifactPinned,
		})
		if jerr != nil {
			return fmt.Errorf("janitor: %w", jerr)
		}
		srv.jan = jan
		go jan.Run(drainCtx)
	}

	// Forget idle job entries past -results-keep, so their logs unpin.
	go func() {
		t := time.NewTicker(f.gcInterval)
		defer t.Stop()
		for {
			select {
			case <-drainCtx.Done():
				return
			case <-t.C:
				srv.jobs.prune()
			}
		}
	}()

	// Replay the open logs concurrently with serving: they take run
	// slots through the same bound as live traffic, so a busy boot
	// interleaves recovery with new work instead of blocking the
	// listener.
	if n := len(srv.replay); n > 0 {
		fmt.Fprintf(stdout, "rfsimd: replaying %d unfinished job(s)\n", n)
	}
	go srv.replayRecovered(drainCtx)

	// The header and idle timeouts are the slow-loris guard: a client
	// that dribbles header bytes (or none) can no longer hold a
	// connection — and its admission slot — forever. ReadTimeout
	// defaults to 0 (off) because net/http arms it at request start and
	// a long-running sweep legitimately streams NDJSON far past any
	// sane read budget; when an operator sets it, the handler clears
	// the deadline as soon as the request body is decoded
	// (ResponseController.SetReadDeadline), so it bounds only the
	// header+body read and never aborts a stream mid-sweep.
	httpSrv := &http.Server{
		Addr:              f.addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: f.readHeaderTimeout,
		ReadTimeout:       f.readTimeout,
		IdleTimeout:       f.idleTimeout,
	}

	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rfsimd listening on %s (queue %d, active %d, cache %d entries)\n",
		ln.Addr(), srv.cfg.maxQueue, srv.cfg.maxActive, srv.cfg.cacheEntries)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-drainCtx.Done():
	}
	srv.draining.Store(true)
	fmt.Fprintln(stdout, "rfsimd draining: cancelling running points...")

	// Give in-flight responses time to finish writing their summary
	// lines (the cancelled drainCtx already interrupted the
	// simulations), then close.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	var workers string
	if srv.pool != nil {
		workers = srv.pool.Stats().Render()
	}
	fmt.Fprintln(stdout, srv.metrics.Snapshot().Render(workers))
	return nil
}
