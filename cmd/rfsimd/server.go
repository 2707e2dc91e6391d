package main

// The HTTP layer of the sweep service. One POST /v1/sweep call is one
// job: it passes admission control (priority-aware bounded queue, 429
// past the bound), waits for a run slot, fans its points across the
// supervisor worker pool, and streams per-point
// outcomes back as NDJSON while later points are still running. The
// content-addressed result cache (internal/sweepcache) is shared by all
// jobs, so colliding points — the common case at service scale — are
// computed once and single-flighted while in flight.
//
// Admission/queue state machine (see DESIGN.md "Sweep as a service"):
//
//	request --(admission slot free)--> QUEUED --(run slot free)--> RUNNING
//	    \--(queue full / batch shed)--> 429            |
//	    \--(cost over ceiling)--> 413                  v
//	    \--(config quarantined)--> 422    DONE (summary line) <--- streaming
//
// Self-protection layers added on top of plain admission:
//
//   - Two admission classes. Interactive jobs (the default) may use the
//     whole queue; batch jobs stop at maxQueue-interactiveReserve, so a
//     flood of bulk sweeps can never displace interactive traffic.
//     Every 429 carries a Retry-After derived from the live latency
//     digest (queue depth x p50 point latency / run slots), not a
//     constant.
//   - Per-request deadlines (spec field deadline_ms, falling back to
//     the X-Sweep-Deadline-Ms header, clamped to -max-deadline) wrap
//     the job context before the queue wait, so queue time counts
//     against the budget and an expired job frees its slot instead of
//     simulating for a client that stopped caring.
//   - A per-job simulated-cycle cost ceiling (-max-job-cycles) checked
//     at admission from the points' cost estimates: one giant sweep
//     cannot starve the pool, and the client learns via 413 instead of
//     a stall.
//   - The poison-config quarantine (quarantine.go): configs that keep
//     panicking the simulator are answered 422 with the crash-dump
//     reference instead of being re-run.
//   - In-flight crash-dump pinning, so the disk-quota janitor
//     (internal/janitor) never deletes a dump a running point has just
//     written and a 422 may still name.
//
// A client disconnect, deadline expiry or server drain cancels the
// job's context at any state; running points stop and the
// admission/run slots are released.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/janitor"
	"repro/internal/obs"
	"repro/internal/shortcut"
	"repro/internal/sweepcache"
	"repro/internal/topology"
)

// serverConfig tunes one service instance.
type serverConfig struct {
	// maxQueue bounds admitted-but-unfinished jobs (queued + running);
	// requests past it get 429.
	maxQueue int
	// interactiveReserve is the tail of the queue only interactive jobs
	// may use: batch jobs are shed once maxQueue-interactiveReserve
	// slots are taken. Negative means the default (maxQueue/4); zero
	// disables the reserve.
	interactiveReserve int
	// maxActive bounds concurrently running sweeps; admitted jobs past
	// it wait in the queue.
	maxActive int
	// workers is the supervisor pool size per running sweep (0 = package
	// default).
	workers int
	// retries is the per-point retry budget.
	retries int
	// pointTimeout bounds each point attempt (0 = none).
	pointTimeout time.Duration
	// maxDeadline caps (and, when a request names none, imposes) the
	// per-request deadline. Zero leaves undated requests unbounded.
	maxDeadline time.Duration
	// maxJobCycles caps one request's summed cost estimate in simulated
	// cycles (0 = unlimited); requests over it get 413.
	maxJobCycles int64
	// dir holds per-job result logs and crash dumps ("" disables both).
	dir string
	// maxPoints and maxCycles cap one request's demand.
	maxPoints int
	maxCycles int64
	// cacheEntries bounds the result cache (0 = unbounded).
	cacheEntries int
	// quarK and quarCooldown tune the poison-config breaker (zero
	// values take the quarantine defaults: 3 failures, 1 minute).
	quarK        int
	quarCooldown time.Duration
	// check arms the invariant checker on every point.
	check bool

	// Crash-only knobs (PR 8).
	//
	// isolate runs every simulation attempt in a supervised child
	// process instead of the daemon's own address space, so an OOM,
	// livelock or runtime corruption in one point kills a worker the
	// pool restarts, never the daemon.
	isolate bool
	// workerMem is the per-worker soft Go memory limit in bytes; a
	// worker whose live heap exceeds it self-terminates with an OOM
	// outcome (0 = no limit).
	workerMem int64
	// workerDeadline is the hard per-attempt wall clock after which a
	// worker is SIGKILLed regardless of heartbeats (0 = none).
	workerDeadline time.Duration
	// workerCommand and workerEnv override the worker argv and extra
	// environment. Empty command means re-exec this executable with
	// -worker; tests point it at the test binary gated by
	// RFSIMD_TEST_WORKER=1.
	workerCommand []string
	workerEnv     []string

	// Exactly-once delivery knobs (PR 9).
	//
	// resultsKeep is how long an idle job's result log stays pinned (and
	// its entry in memory) after the last producer or reader touched it;
	// past it the janitor may collect the log (0 = 5 minutes).
	resultsKeep time.Duration
}

func (c serverConfig) withDefaults() serverConfig {
	if c.maxQueue <= 0 {
		c.maxQueue = 32
	}
	if c.maxActive <= 0 {
		c.maxActive = 2
	}
	if c.maxPoints <= 0 {
		c.maxPoints = 256
	}
	if c.interactiveReserve < 0 {
		c.interactiveReserve = c.maxQueue / 4
	}
	if c.interactiveReserve >= c.maxQueue {
		c.interactiveReserve = c.maxQueue - 1
	}
	return c
}

// admission is the priority-aware queue bound: depth counts
// queued-or-running jobs, interactive jobs may fill the whole queue,
// batch jobs only up to batchMax. A channel cannot express two
// watermarks over one counter, so this is a plain mutex-guarded gate.
type admission struct {
	mu       sync.Mutex
	depth    int
	maxQueue int
	batchMax int
}

// tryAdmit claims a slot without blocking; false means shed (429).
func (a *admission) tryAdmit(batch bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	limit := a.maxQueue
	if batch {
		limit = a.batchMax
	}
	if a.depth >= limit {
		return false
	}
	a.depth++
	return true
}

func (a *admission) release() {
	a.mu.Lock()
	a.depth--
	a.mu.Unlock()
}

func (a *admission) depthNow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.depth
}

// server is one service instance: shared cache, metrics, quarantine and
// admission state over a mesh topology.
type server struct {
	cfg     serverConfig
	mesh    *topology.Mesh
	cache   *sweepcache.Cache
	metrics *obs.ServiceMetrics
	quar    *quarantine
	adm     *admission

	// jan, when non-nil, is the disk-quota janitor whose stats are
	// exported via /v1/metrics; its Pinned callback is artifactPinned.
	jan *janitor.Janitor

	// pool, when non-nil (-isolate), executes every point attempt in a
	// supervised worker process.
	pool *experiments.WorkerPool

	// jobs is the per-job result-log registry behind exactly-once
	// delivery: stable job IDs, durable outcome frames, cursor resume.
	jobs *jobRegistry

	// replay holds the open result logs found at boot, oldest accept
	// first, until replayRecovered drains them; replayed counts the
	// ones it actually re-ran.
	replay   []*jobEntry
	replayed atomic.Int64

	runTok chan struct{} // concurrency bound: running jobs

	// pins refcounts the point IDs (fingerprints) of admitted jobs, so
	// the janitor never deletes a crash dump an in-flight point has just
	// written.
	pinsMu sync.Mutex
	pins   map[string]int

	// drainCtx is cancelled on graceful shutdown: running points return
	// Interrupted, and new requests are refused.
	drainCtx context.Context
	draining atomic.Bool

	// onCompute, when non-nil, observes every actual simulation attempt
	// with the point's fingerprint — the rig tests' exactly-once probe.
	onCompute func(fingerprint string)

	// chaosPanic is the chaos harness's fault seam, nil in production:
	// chaosPanic(configFingerprint) panics the attempt before the
	// simulator starts (a worker-crash fault).
	chaosPanic func(configFingerprint string) bool

	// chaosWorkerJob, when non-nil under -isolate, tags dispatched
	// points with a worker-hostile fault directive ("panic", "alloc",
	// "hang") by point fingerprint.
	chaosWorkerJob func(pointFingerprint string) string
}

func newServer(drainCtx context.Context, cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	s := &server{
		cfg:     cfg,
		mesh:    topology.New10x10(),
		cache:   sweepcache.New(cfg.cacheEntries),
		metrics: obs.NewServiceMetrics(),
		quar:    newQuarantine(cfg.quarK, cfg.quarCooldown),
		adm: &admission{
			maxQueue: cfg.maxQueue,
			batchMax: cfg.maxQueue - cfg.interactiveReserve,
		},
		runTok:   make(chan struct{}, cfg.maxActive),
		pins:     map[string]int{},
		drainCtx: drainCtx,
	}
	s.jobs = newJobRegistry(cfg.dir, cfg.resultsKeep, s.metrics)
	replay, err := s.jobs.recoverOpen()
	if err != nil {
		return nil, err
	}
	s.replay = replay
	if cfg.isolate {
		cmd := cfg.workerCommand
		if len(cmd) == 0 {
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("resolving worker executable: %w", err)
			}
			cmd = []string{exe, "-worker"}
		}
		// Pool size: enough children to feed every run slot's supervisor
		// workers, bounded so -active x -workers cannot fork-bomb the box.
		per := cfg.workers
		if per <= 0 {
			per = runtime.GOMAXPROCS(0)
		}
		n := cfg.maxActive * per
		if n > 16 {
			n = 16
		}
		if n < 1 {
			n = 1
		}
		pool, err := experiments.NewWorkerPool(experiments.WorkerPoolConfig{
			Command:  cmd,
			Env:      cfg.workerEnv,
			Workers:  n,
			MemLimit: cfg.workerMem,
			Deadline: cfg.workerDeadline,
			ChaosJob: func(_ *experiments.PointPayload, fp string) string {
				if s.chaosWorkerJob == nil {
					return ""
				}
				return s.chaosWorkerJob(fp)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("worker pool: %w", err)
		}
		s.pool = pool
	}
	return s, nil
}

// close releases the server's process-level resources (worker pool,
// result-log handles). Open result logs stay on disk for replay and
// resume.
func (s *server) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	s.jobs.closeAll()
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// pinArtifacts pins the points' IDs for the janitor and returns the
// matching unpin.
func (s *server) pinArtifacts(pts []experiments.SweepPoint) (unpin func()) {
	s.pinsMu.Lock()
	for i := range pts {
		s.pins[pts[i].ID]++
	}
	s.pinsMu.Unlock()
	return func() {
		s.pinsMu.Lock()
		for i := range pts {
			id := pts[i].ID
			if s.pins[id]--; s.pins[id] <= 0 {
				delete(s.pins, id)
			}
		}
		s.pinsMu.Unlock()
	}
}

// supervise runs pts through the supervisor with the server's pool,
// cache and retry policy; every producer uses it.
func (s *server) supervise(ctx context.Context, pts []experiments.SweepPoint, onOutcome func(int, experiments.PointOutcome)) error {
	sc := experiments.SuperviseConfig{
		Workers:      s.cfg.workers,
		Retries:      s.cfg.retries,
		PointTimeout: s.cfg.pointTimeout,
		Dir:          s.cfg.dir,
		Cache:        s.cache,
		OnOutcome:    onOutcome,
	}
	if s.pool != nil {
		// A concrete nil must never land in the interface field, or the
		// supervisor would "dispatch" every point into a nil deref.
		sc.Exec = s.pool
	}
	_, err := experiments.Supervise(ctx, sc, pts)
	return err
}

// artifactPinned is the janitor's Pinned callback: a crash dump whose
// base name is an in-flight point ID must survive, and a result log
// must survive while its job is live or recently read.
func (s *server) artifactPinned(name string) bool {
	if strings.HasSuffix(name, resultLogSuffix) {
		return s.jobs.resultPinned(name)
	}
	id := strings.TrimSuffix(name, ".crash.json")
	s.pinsMu.Lock()
	defer s.pinsMu.Unlock()
	return s.pins[id] > 0
}

// pinCount reports live pins (a post-drain invariant: zero).
func (s *server) pinCount() int {
	s.pinsMu.Lock()
	defer s.pinsMu.Unlock()
	return len(s.pins)
}

// outcomeLine and summaryLine are the two NDJSON record shapes of a
// sweep response: one "outcome" per requested point, in completion
// order, then exactly one "summary". Since PR 9 a stream may also open
// with a "job" line (jobLine) and end with an "idle" line (idleLine),
// and durable lines carry a seq — the 1-based position of the frame in
// the job's result log, the cursor a client resumes from. A line with
// no seq is transient (a failure, or a duplicate computation's view)
// and will not replay on a resumed GET.
type outcomeLine struct {
	Type        string              `json:"type"` // "outcome"
	Seq         int64               `json:"seq,omitempty"`
	Index       int                 `json:"index"`
	ID          string              `json:"id"`
	Fingerprint string              `json:"fingerprint"`
	Cached      bool                `json:"cached"`
	Recovered   bool                `json:"recovered,omitempty"`
	Attempts    int                 `json:"attempts"`
	Error       string              `json:"error,omitempty"`
	CrashDump   string              `json:"crash_dump,omitempty"`
	Result      *experiments.Result `json:"result,omitempty"`
}

type summaryLine struct {
	Type         string  `json:"type"` // "summary"
	Seq          int64   `json:"seq,omitempty"`
	Points       int     `json:"points"`
	Failed       int     `json:"failed"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	Error        string  `json:"error,omitempty"`
}

// httpError is the JSON error envelope for non-streaming failures.
func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Write([]byte("ok\n"))
}

// handleReadyz is the load-balancer signal: it turns unready while the
// server still has interactive headroom, so upstream traffic shifts
// away before clients start seeing 429s.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	depth, batchMax := s.adm.depthNow(), s.adm.batchMax
	if depth >= batchMax {
		httpError(w, http.StatusServiceUnavailable,
			"saturating: queue depth %d at batch threshold %d (interactive reserve only)", depth, batchMax)
		return
	}
	w.Write([]byte("ready\n"))
}

// recoveryStats is the /v1/metrics view of boot replay: open_jobs
// counts recovered logs still awaiting or running their replay.
type recoveryStats struct {
	OpenJobs int   `json:"open_jobs"`
	Replayed int64 `json:"replayed"`
}

// memoStats is the /v1/metrics view of the process-wide memos a compile
// reads: the static and adaptive shortcut selections, and the adaptive
// profiles. A miss is a selection or a profile run in the POST handler,
// so misses are what make a compile slow.
type memoStats struct {
	Selection sweepcache.Stats `json:"selection"`
	Profile   sweepcache.Stats `json:"profile"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Service  obs.ServiceSnapshot          `json:"service"`
		Cache    sweepcache.Stats             `json:"cache"`
		Memo     memoStats                    `json:"memo"`
		Janitor  *janitor.Stats               `json:"janitor,omitempty"`
		Workers  *experiments.WorkerPoolStats `json:"workers,omitempty"`
		Recovery *recoveryStats               `json:"recovery,omitempty"`
	}{
		Service: s.metrics.Snapshot(),
		Cache:   s.cache.Stats(),
		Memo:    memoStats{Selection: shortcut.MemoStats(), Profile: experiments.ProfileMemoStats()},
	}
	if s.jan != nil {
		st := s.jan.Stats()
		resp.Janitor = &st
	}
	if s.pool != nil {
		st := s.pool.Stats()
		resp.Workers = &st
	}
	if s.cfg.dir != "" {
		resp.Recovery = &recoveryStats{OpenJobs: s.jobs.heldEntries(), Replayed: s.replayed.Load()}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// retryAfterSeconds derives the Retry-After value from live load: the
// queue-drain estimate of the latency digest, clamped to [1,300]
// seconds. A cold digest estimates 0 and clamps to the floor, so the
// header is always present and always positive.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

func (s *server) setRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(d)))
}

// parsePriority resolves the admission class: the spec field wins over
// the X-Priority header; empty means interactive.
func parsePriority(spec, header string) (batch bool, err error) {
	p := spec
	if p == "" {
		p = header
	}
	switch p {
	case "", "interactive":
		return false, nil
	case "batch":
		return true, nil
	default:
		return false, fmt.Errorf("unknown priority %q (want interactive or batch)", p)
	}
}

// parseDeadline resolves the request deadline: the spec field wins over
// the X-Sweep-Deadline-Ms header; zero means none requested.
func parseDeadline(specMS int64, header string) (time.Duration, error) {
	ms := specMS
	if ms == 0 && header != "" {
		v, err := strconv.ParseInt(header, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid X-Sweep-Deadline-Ms %q: %v", header, err)
		}
		ms = v
	}
	if ms < 0 {
		return 0, fmt.Errorf("deadline must be non-negative, got %dms", ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid sweep request: %v", err)
		return
	}
	// The request is fully read: clear the connection read deadline a
	// nonzero -read-timeout armed, so it bounds only the header+body
	// read and can never abort a sweep whose NDJSON stream outlives it.
	// (Some transports don't support this; an error just means there is
	// no deadline to clear.)
	http.NewResponseController(w).SetReadDeadline(time.Time{})
	batch, err := parsePriority(req.Priority, r.Header.Get("X-Priority"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid sweep request: %v", err)
		return
	}
	deadline, err := parseDeadline(req.DeadlineMS, r.Header.Get("X-Sweep-Deadline-Ms"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid sweep request: %v", err)
		return
	}
	if s.cfg.maxDeadline > 0 && (deadline == 0 || deadline > s.cfg.maxDeadline) {
		deadline = s.cfg.maxDeadline
	}
	pts, err := compileRequest(req, s.mesh,
		specLimits{maxPoints: s.cfg.maxPoints, maxCycles: s.cfg.maxCycles}, s.cfg.check)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid sweep spec: %v", err)
		return
	}

	// Job identity: an explicit Idempotency-Key names the job, otherwise
	// it is content-addressed from the compiled points. Either way the
	// body's fingerprint is recorded so a reused key with a different
	// body is a 409, never a silent wrong answer; so is the request
	// itself, which a boot replay recompiles.
	reqFP := contentIdentity(pts)
	jobKey := reqFP
	keyed := false
	if k := r.Header.Get("Idempotency-Key"); k != "" {
		jobKey = jobIDFromKey(k)
		keyed = true
	}
	spec, _ := json.Marshal(req) // a request that decoded always re-encodes
	ent, state, err := s.jobs.attach(jobKey, reqFP, len(pts), spec)
	if err != nil {
		httpError(w, http.StatusConflict, "job %s: %v", jobKey, err)
		return
	}
	if keyed && state != jobIdle {
		// Exactly-once attach: the keyed job is already running or done.
		// Serve its result log — tailing a live producer — instead of
		// recomputing; no admission slot, no new producer, no
		// simulation. (Unkeyed re-POSTs keep the pre-PR-9 behaviour of
		// re-running through the result cache.)
		s.metrics.JobAttached()
		s.serveJobStream(r.Context(), w, ent, 1)
		return
	}

	// Cost ceiling: the summed admission-time estimate of simulated
	// cycles. Checked before any slot is claimed, so an oversized sweep
	// costs the service nothing but the decode.
	if s.cfg.maxJobCycles > 0 {
		var cost int64
		for i := range pts {
			cost += pts[i].Cost
		}
		if cost > s.cfg.maxJobCycles {
			httpError(w, http.StatusRequestEntityTooLarge,
				"job cost estimate %d simulated cycles exceeds the server ceiling %d", cost, s.cfg.maxJobCycles)
			return
		}
	}

	// Poison-config quarantine: any point naming a quarantined config
	// blocks the whole job with the crash-dump evidence. Half-open probe
	// claims are ownership-tracked per request: admit tells exactly one
	// caller it is the probe, claims records it, and every exit path —
	// blocked on a later config, shed, cancelled while queued, or points
	// that never delivered a verdict — releases only the claims THIS
	// request holds, never a probe a concurrent request is running.
	var configs []string
	seenCfg := map[string]bool{}
	for i := range pts {
		cfgFP := pts[i].Meta["config"]
		if cfgFP == "" || seenCfg[cfgFP] {
			continue
		}
		seenCfg[cfgFP] = true
		configs = append(configs, cfgFP)
	}
	claims := newProbeClaims(s.quar)
	defer claims.abortRemaining()
	for _, cfgFP := range configs {
		blocked, probe, dump, retry := s.quar.admit(cfgFP)
		if probe {
			claims.add(cfgFP)
		}
		if !blocked {
			continue
		}
		s.metrics.JobQuarantined()
		s.setRetryAfter(w, retry)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]string{
			"error": fmt.Sprintf("config %s is quarantined: it panicked the simulator %d+ times; see the crash dump instead of re-running",
				cfgFP, s.quar.k),
			"config":     cfgFP,
			"crash_dump": dump,
		})
		return
	}

	// Admission control: a free slot in the job's class or a 429, never
	// blocking. Batch jobs are shed earlier (the interactive reserve).
	if !s.adm.tryAdmit(batch) {
		s.metrics.JobRejected(batch)
		s.setRetryAfter(w, s.metrics.EstimateWait(s.cfg.maxActive))
		limit := s.adm.maxQueue
		kind := "job queue full"
		if batch {
			limit = s.adm.batchMax
			kind = "batch admission full (interactive reserve held back)"
		}
		httpError(w, http.StatusTooManyRequests, "%s (%d queued or running)", kind, limit)
		return
	}
	s.metrics.JobAdmitted()
	defer s.adm.release()

	// The job dies with the client connection, its deadline or a server
	// drain, whichever comes first. The deadline wraps the context
	// *before* the queue wait, so time spent queued counts against the
	// budget.
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	if err := s.runJob(ctx, ent, pts, w, claims); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

// runJob produces an admitted job into ent's result log. It is the one
// producer path: a POST passes its response writer, which then streams
// the job as NDJSON; a boot replay passes neither a writer nor probe
// claims. claims holds the half-open probe claims the request owns;
// verdicts settle them as points finish. A non-nil error means the job
// never ran — its log would not open, or ctx ended while it waited for
// a run slot — and nothing was written to w.
func (s *server) runJob(ctx context.Context, ent *jobEntry, pts []experiments.SweepPoint, w http.ResponseWriter, claims *probeClaims) error {
	// Durability point: the producer claim opens (or resumes) the job's
	// result log, whose header — request included — is fsync'd before
	// any simulation starts, so from here on a daemon crash leaves an
	// open log for the next boot to replay. Every successful outcome is
	// fsync'd into the log before its seq reaches a client, so a crash
	// can never retract a frame a client consumed. A job whose log will
	// not open is a job we cannot promise: refuse it. Every terminal
	// exit settles the log except a server drain, which deliberately
	// leaves it open so the restarted daemon finishes the job.
	if err := s.jobs.startProducer(ent); err != nil {
		s.metrics.JobDone(false, true)
		return fmt.Errorf("result log open failed: %w", err)
	}

	// Pin this job's crash dumps for the janitor while it is in flight.
	defer s.pinArtifacts(pts)()

	// A server drain stops the running points; the restarted daemon
	// re-runs them from cycle 0.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(s.drainCtx, cancel)()

	// Queued: wait for a run slot.
	select {
	case s.runTok <- struct{}{}:
	case <-ctx.Done():
		s.jobs.endProducer(ent, s.drainCtx.Err() == nil)
		s.metrics.JobDone(false, true)
		return fmt.Errorf("cancelled while queued: %w", ctx.Err())
	}
	s.metrics.JobStarted()
	defer func() { <-s.runTok }()

	start := time.Now()
	var st *jobStream
	if w != nil {
		st = newJobStream(w, ent)
	}

	// Per-point wall clocks, written by the instrumented Run wrappers
	// (cache hits never run, so their latency stays 0 — honest: a hit
	// costs nothing). The wrappers also host the chaos fault seam:
	// injected panics exercise the crash-dump + quarantine path.
	walls := make([]atomic.Int64, len(pts))
	for i := range pts {
		i, orig := i, pts[i].Run
		fp := pts[i].Fingerprint
		cfgFP := pts[i].Meta["config"]
		pts[i].Run = func(ctx context.Context, spec experiments.CheckpointSpec) (experiments.Result, error) {
			if s.onCompute != nil {
				s.onCompute(fp)
			}
			if s.chaosPanic != nil && s.chaosPanic(cfgFP) {
				panic(fmt.Sprintf("chaos: injected simulator panic (config %s)", cfgFP))
			}
			t0 := time.Now()
			res, err := orig(ctx, spec)
			walls[i].Store(int64(time.Since(t0)))
			return res, err
		}
	}

	var failures atomic.Int64
	err := s.supervise(ctx, pts, func(i int, o experiments.PointOutcome) {
		s.metrics.PointDone(o.Cached, o.Err != nil, time.Duration(walls[i].Load()))
		// Feed the quarantine verdict-by-verdict: a computed success
		// forgives the config, a panic counts toward the trip, and
		// anything else — cancellation, a timeout, or a cache
		// hit that never re-ran the simulator — is no verdict: it
		// settles only this request's own probe claim, if it held
		// one, and never touches a probe another request is running.
		if cfgFP := pts[i].Meta["config"]; cfgFP != "" {
			probe := claims != nil && claims.settle(cfgFP)
			switch {
			case o.Err == nil && !o.Cached:
				s.quar.reportSuccess(cfgFP)
			case o.Panicked:
				s.quar.reportPanic(cfgFP, o.CrashDump, probe)
			default:
				if probe {
					s.quar.reportAbort(cfgFP)
				}
			}
		}
		line := outcomeLine{
			Type:        "outcome",
			Index:       i,
			ID:          o.ID,
			Fingerprint: o.Fingerprint,
			Cached:      o.Cached,
			Recovered:   o.Recovered,
			Attempts:    o.Attempts,
			CrashDump:   o.CrashDump,
		}
		if o.Err != nil {
			// Failures are transient (no seq, never logged): the job
			// stays incomplete and a later POST re-runs just the
			// failed indices through the cache.
			failures.Add(1)
			line.Error = o.Err.Error()
			if st != nil {
				st.emit(line)
			}
			return
		}
		line.Result = &o.Result
		if st == nil {
			s.jobs.appendOutcome(ent, line)
			return
		}
		st.logOutcome(s.jobs, line)
	})

	summary := summaryLine{
		Type:         "summary",
		Points:       len(pts),
		Failed:       int(failures.Load()),
		CacheHitRate: s.cache.Stats().HitRate(),
		ElapsedMS:    time.Since(start).Milliseconds(),
	}
	if err != nil && errors.Is(err, ctx.Err()) && ctx.Err() != nil {
		summary.Error = fmt.Sprintf("sweep interrupted: %v", err)
	}
	// A clean, failure-free run seals the job: the summary frame is the
	// durable terminal a resumed GET ends on. Interrupted or failing
	// runs leave the job idle and resumable, and the client knows to
	// re-POST.
	if err == nil && summary.Failed == 0 && summary.Error == "" {
		s.jobs.appendSummary(ent, summary)
	}
	if st != nil {
		st.finish(summary)
	}
	s.jobs.endProducer(ent, s.drainCtx.Err() == nil)
	s.metrics.JobDone(true, err != nil)
	return nil
}

// jobStream is a POST's NDJSON response. It opens with the job line,
// carries every successful outcome as a log frame with its seq, and
// writes transient lines (no seq, never replayed) for failures, for a
// duplicate computation's view of an index another run logged, and for
// the summary of a run that did not seal the job. Its methods are safe
// for concurrent use by supervisor workers.
type jobStream struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	ent *jobEntry

	mu sync.Mutex // serializes writes
	// written counts the log frames this stream has passed. It passes
	// them in seq order and carries each, other producers' frames
	// included (an earlier run's, a boot replay's): a client resumes
	// from the last seq it read, so a frame skipped here would never
	// reach it. The one frame it may skip is an outcome whose index the
	// stream already carried as a transient line, which the client has
	// read before any later seq.
	written int
	carried map[int]bool // point indices on this stream
}

// newJobStream starts the response: every stream opens by naming the
// job, the ID (and cursor protocol) the client resumes with after a
// disconnect.
func newJobStream(w http.ResponseWriter, ent *jobEntry) *jobStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Flush through the ResponseController, which unwraps middleware
	// ResponseWriter wrappers; a direct http.Flusher assertion panics
	// under any non-flushing wrapper. A transport that truly cannot
	// flush just buffers — degraded, not dead.
	st := &jobStream{w: w, rc: http.NewResponseController(w), ent: ent, carried: map[int]bool{}}
	st.emit(jobLine{Type: "job", ID: ent.id, Points: ent.header.Points})
	return st
}

var newline = []byte{'\n'}

func (st *jobStream) writeLocked(blob []byte) {
	st.w.Write(blob)
	st.w.Write(newline)
	st.rc.Flush()
}

// emit writes one transient line.
func (st *jobStream) emit(line interface{}) {
	blob, err := json.Marshal(line)
	if err != nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.writeLocked(blob)
}

// carryLocked passes the log frames past written, by the carried rule.
func (st *jobStream) carryLocked() {
	for _, blob := range st.ent.snapshotFrom(st.written).lines {
		st.written++
		var li lineIndex
		if json.Unmarshal(blob, &li) == nil && li.Type == "outcome" {
			if st.carried[li.Index] {
				continue
			}
			st.carried[li.Index] = true
		}
		st.writeLocked(blob)
	}
}

// logOutcome tees one successful outcome into the durable log. The
// first producer to finish the index owns its frame; the append fsyncs
// it, and the stream then carries all the logged frames it has not
// carried yet, its own last. A collision — an index another run
// already logged — streams its own transient view instead. Logging and
// writing happen under one lock: a client takes seqs in stream order as
// its resume cursor, so a frame written ahead of one logged before it
// would make the client drop the earlier frame as already seen.
func (st *jobStream) logOutcome(jobs *jobRegistry, line outcomeLine) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if jobs.appendOutcome(st.ent, line) {
		st.carryLocked()
		return
	}
	if blob, err := json.Marshal(line); err == nil && !st.carried[line.Index] {
		st.carried[line.Index] = true
		st.writeLocked(blob)
	}
}

// finish ends the stream with exactly one summary line. A sealed job —
// sealed by this run or by another producer — ends on its logged
// summary, carried after every frame before it; an unsealed one ends
// on this run's transient summary.
func (st *jobStream) finish(sum summaryLine) {
	if !st.ent.snapshotFrom(0).done {
		st.emit(sum)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.carryLocked()
}

// serveJobStream streams a job's durable frames from a 1-based cursor,
// tails a live producer, and terminates with either the logged summary
// frame (complete job) or an "idle" line (no producer, incomplete —
// the client should re-POST to restart the run). Both the request
// context and a server drain end the tail.
func (s *server) serveJobStream(ctx context.Context, w http.ResponseWriter, ent *jobEntry, from int64) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.drainCtx, cancel)
	defer stop()
	// A cancelled stream must fall out of the cond wait: bridge the
	// context into the entry's broadcast.
	wake := context.AfterFunc(ctx, ent.broadcast)
	defer wake()

	s.jobs.addReader(ent)
	defer s.jobs.dropReader(ent)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	write := func(blob []byte) bool {
		if _, err := w.Write(blob); err != nil {
			return false
		}
		if _, err := w.Write(newline); err != nil {
			return false
		}
		rc.Flush()
		return true
	}

	if !write(mustMarshal(jobLine{Type: "job", ID: ent.id, Points: ent.header.Points})) {
		return
	}
	cursor := int(from - 1)
	for {
		if ctx.Err() != nil {
			return
		}
		snap := ent.waitChange(cursor, func() bool { return ctx.Err() != nil })
		for _, blob := range snap.lines {
			if ctx.Err() != nil || !write(blob) {
				return
			}
			cursor++
		}
		if snap.done {
			// The summary frame is always the last durable frame, so the
			// loop above just wrote it (or the cursor was already past).
			return
		}
		if len(snap.lines) == 0 && ctx.Err() == nil && snap.active == 0 {
			write(mustMarshal(idleLine{Type: "idle"}))
			return
		}
	}
}

// handleJobResults is the resume endpoint: replay the job's durable
// result log from a cursor and tail it live. ?from=<seq> names the
// first frame wanted (default 1); a client that consumed through seq N
// resumes with from=N+1 and sees no duplicates.
func (s *server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.setRetryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	from := int64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "invalid from cursor %q: want a positive frame seq", v)
			return
		}
		from = n
	}
	ent := s.jobs.lookup(r.PathValue("id"))
	if ent == nil {
		httpError(w, http.StatusNotFound, "unknown job (expired, collected, or never accepted)")
		return
	}
	s.metrics.ResumeRead()
	s.serveJobStream(r.Context(), w, ent, from)
}

// replayRecovered drains the open logs found at boot, oldest accept
// first: each job is recompiled from the request in its log header and
// re-run through runJob, the path a live request takes, with no
// response to stream — the outcomes resume the job's log where the
// crashed run stopped, so a client that was mid-stream re-reads the
// missed frames via GET and a re-submitted request hits the cache.
// Admission control is bypassed on purpose (these jobs were already
// admitted, and a full queue at boot must not orphan them), but the
// metrics job ledger still balances: every replay counts as admitted
// and done. A drain during replay leaves the remaining logs open for
// the next boot.
func (s *server) replayRecovered(ctx context.Context) {
	jobs := s.replay
	s.replay = nil
	for _, ent := range jobs {
		if ctx.Err() != nil {
			return
		}
		s.replayOne(ctx, ent)
	}
}

func (s *server) replayOne(ctx context.Context, ent *jobEntry) {
	if ent.snapshotFrom(0).done {
		// A keyed re-POST sealed the job after boot.
		s.jobs.releaseHold(ent)
		return
	}
	var req SweepRequest
	var pts []experiments.SweepPoint
	if err := json.Unmarshal(ent.header.Spec, &req); err == nil {
		pts, err = compileRequest(req, s.mesh,
			specLimits{maxPoints: s.cfg.maxPoints, maxCycles: s.cfg.maxCycles}, s.cfg.check)
		if err != nil {
			pts = nil
		}
	}
	if len(pts) == 0 || contentIdentity(pts) != ent.header.Req {
		// The logged spec no longer compiles to the same job (caps
		// tightened across the restart, or the compiler changed).
		// Settle it so it cannot replay forever.
		s.endReplay(ent, true)
		return
	}
	s.replayed.Add(1)
	s.metrics.JobAdmitted()
	// The hold keeps runJob from settling the log. A drain leaves the
	// log open and held, so the next boot re-runs the points that were
	// running from cycle 0; a log that would not reopen stays open for
	// the next boot too.
	err := s.runJob(ctx, ent, pts, nil, nil)
	if ctx.Err() == nil {
		s.endReplay(ent, err == nil)
	}
}

// endReplay ends ent's replay hold. settle also settles its log unless
// it is sealed, so the next boot leaves it alone.
func (s *server) endReplay(ent *jobEntry, settle bool) {
	settle = settle && s.jobs.startProducer(ent) == nil
	s.jobs.releaseHold(ent)
	if settle {
		s.jobs.endProducer(ent, true)
	}
}
