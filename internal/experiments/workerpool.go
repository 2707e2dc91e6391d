package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/frame"
)

// WorkerEvent classifies worker-pool lifecycle events for metrics.
type WorkerEvent int

// Worker-pool events, in rough lifecycle order.
const (
	WorkerSpawned         WorkerEvent = iota // a child process started
	WorkerCrashed                            // a child died (or was killed) mid-job
	WorkerKilledHeartbeat                    // SIGKILL: heartbeats stopped
	WorkerKilledDeadline                     // SIGKILL: hard wall-clock deadline
	WorkerOOM                                // child self-terminated at its memory limit
	WorkerRestartBackoff                     // a respawn was delayed by crash backoff
)

// WorkerPoolConfig tunes a WorkerPool.
type WorkerPoolConfig struct {
	// Command is the worker argv — typically the daemon's own executable
	// plus "-worker" (re-exec), or a test binary gated by an env var.
	Command []string

	// Env is extra environment appended to the parent's own. The pool
	// adds GOMEMLIMIT itself when MemLimit is set.
	Env []string

	// Workers bounds live child processes; defaults to the package
	// Workers value.
	Workers int

	// MemLimit is the per-job soft Go memory limit in bytes. The child
	// self-terminates with an OOM outcome once its live heap exceeds it.
	MemLimit int64

	// Deadline is the hard per-attempt wall clock: past it the child is
	// SIGKILLed regardless of heartbeats. Zero disables it (the
	// supervisor's PointTimeout still cancels gracefully).
	Deadline time.Duration

	// Heartbeat is the child's heartbeat period (default 100ms);
	// HeartbeatMisses (default 20) consecutive silent periods get the
	// child SIGKILLed.
	Heartbeat       time.Duration
	HeartbeatMisses int

	// CancelGrace is how long a cancelled job may take to answer with its
	// Interrupted result before the SIGKILL (default 2s).
	CancelGrace time.Duration

	// RestartBackoff is the base respawn delay after a crash, doubling
	// per consecutive crash up to MaxRestartBackoff (defaults 50ms / 2s).
	// A successful outcome resets the streak.
	RestartBackoff    time.Duration
	MaxRestartBackoff time.Duration

	// OnEvent, when non-nil, observes lifecycle events (concurrently).
	OnEvent func(WorkerEvent)

	// ChaosJob, when non-nil, lets the chaos harness tag a dispatched
	// point with a worker-hostile fault directive ("panic", "alloc",
	// "hang"). Production never sets it.
	ChaosJob func(payload *PointPayload, fingerprint string) string
}

func (c WorkerPoolConfig) withDefaults() WorkerPoolConfig {
	if c.Workers <= 0 {
		c.Workers = Workers
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 20
	}
	if c.CancelGrace <= 0 {
		c.CancelGrace = 2 * time.Second
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 50 * time.Millisecond
	}
	if c.MaxRestartBackoff <= 0 {
		c.MaxRestartBackoff = 2 * time.Second
	}
	return c
}

// WorkerPoolStats is a snapshot of pool counters.
type WorkerPoolStats struct {
	Spawned         int64 `json:"spawned"`
	Crashed         int64 `json:"crashed"`
	KilledHeartbeat int64 `json:"killed_heartbeat"`
	KilledDeadline  int64 `json:"killed_deadline"`
	OOM             int64 `json:"oom"`
	RestartBackoffs int64 `json:"restart_backoffs"`
	JobsDispatched  int64 `json:"jobs_dispatched"`
	JobsCompleted   int64 `json:"jobs_completed"` // outcomes received, success or failure
	Live            int   `json:"live"`           // current child processes
}

// WorkerPool supervises a pool of out-of-process workers and implements
// Executor over them: each Execute ships one point to a child, relays
// heartbeats, and converts child death — crash, OOM, heartbeat loss,
// deadline overrun — into a *WorkerCrash error the sweep supervisor
// turns into a crash-dumped, quarantine-visible point failure. Workers
// are reused across jobs and respawned with exponential backoff after
// crashes, so a poison config degrades one point, not the daemon.
type WorkerPool struct {
	cfg WorkerPoolConfig

	slots chan struct{}

	mu     sync.Mutex
	idle   []*worker
	live   map[*worker]struct{}
	busy   map[*worker]struct{}
	streak int // consecutive crashes without an intervening success
	closed bool
	stats  WorkerPoolStats
}

// NewWorkerPool validates the config and returns an empty pool; workers
// spawn on demand.
func NewWorkerPool(cfg WorkerPoolConfig) (*WorkerPool, error) {
	if len(cfg.Command) == 0 {
		return nil, errors.New("experiments: worker pool needs a command")
	}
	cfg = cfg.withDefaults()
	return &WorkerPool{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.Workers),
		live:  map[*worker]struct{}{},
		busy:  map[*worker]struct{}{},
	}, nil
}

// worker is one child process.
type worker struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	frames  chan wireFrame // closed when stdout breaks (child death)
	stderr  *tailBuffer
	waitErr chan error // buffered 1: cmd.Wait result, sent before frames closes
}

// tailBuffer keeps the last max bytes written, for stderr harvest.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func (p *WorkerPool) event(e WorkerEvent) {
	p.mu.Lock()
	switch e {
	case WorkerSpawned:
		p.stats.Spawned++
	case WorkerCrashed:
		p.stats.Crashed++
	case WorkerKilledHeartbeat:
		p.stats.KilledHeartbeat++
	case WorkerKilledDeadline:
		p.stats.KilledDeadline++
	case WorkerOOM:
		p.stats.OOM++
	case WorkerRestartBackoff:
		p.stats.RestartBackoffs++
	}
	cb := p.cfg.OnEvent
	p.mu.Unlock()
	if cb != nil {
		cb(e)
	}
}

// Stats snapshots the counters.
func (p *WorkerPool) Stats() WorkerPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Live = len(p.live)
	return s
}

// Execute implements Executor.
func (p *WorkerPool) Execute(ctx context.Context, payload *PointPayload, fp string) (Result, error) {
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	defer func() { <-p.slots }()

	w, err := p.checkout(ctx)
	if err != nil {
		return Result{}, err
	}

	job := workerJob{
		Fingerprint: fp,
		Point:       *payload,
		MemLimit:    p.cfg.MemLimit,
		HeartbeatMS: p.cfg.Heartbeat.Milliseconds(),
	}
	if p.cfg.ChaosJob != nil {
		job.Chaos = p.cfg.ChaosJob(payload, fp)
	}
	blob, err := json.Marshal(job)
	if err != nil {
		p.release(w, true)
		return Result{}, fmt.Errorf("experiments: encoding worker job: %w", err)
	}
	p.mu.Lock()
	p.stats.JobsDispatched++
	p.mu.Unlock()
	if err := frame.Write(w.stdin, FrameJob, blob); err != nil {
		return Result{}, p.crashed(w, "rejected its job: "+err.Error(), false)
	}
	return p.supervise(ctx, w)
}

// supervise relays one dispatched job to its outcome, killing the
// worker on heartbeat loss, deadline overrun, or an overstayed cancel.
func (p *WorkerPool) supervise(ctx context.Context, w *worker) (Result, error) {
	hbTimeout := p.cfg.Heartbeat * time.Duration(p.cfg.HeartbeatMisses)
	hbTimer := time.NewTimer(hbTimeout)
	defer hbTimer.Stop()

	var deadlineC <-chan time.Time
	if p.cfg.Deadline > 0 {
		dl := time.NewTimer(p.cfg.Deadline)
		defer dl.Stop()
		deadlineC = dl.C
	}

	ctxDone := ctx.Done()
	var graceC <-chan time.Time
	for {
		select {
		case fr, ok := <-w.frames:
			if !ok {
				return Result{}, p.crashed(w, "exited unexpectedly", false)
			}
			switch fr.kind {
			case FrameHeartbeat:
				if !hbTimer.Stop() {
					select {
					case <-hbTimer.C:
					default:
					}
				}
				hbTimer.Reset(hbTimeout)
			case FrameOutcome:
				var out workerOutcome
				if err := json.Unmarshal(fr.payload, &out); err != nil {
					return Result{}, p.crashed(w, "sent a malformed outcome: "+err.Error(), false)
				}
				p.mu.Lock()
				p.stats.JobsCompleted++
				p.mu.Unlock()
				if out.OOM {
					p.event(WorkerOOM)
					err := p.crashed(w, "exceeded its memory limit", true)
					var wc *WorkerCrash
					if errors.As(err, &wc) {
						wc.OOM = true
						wc.Evidence = out.Evidence
						if out.Err != "" {
							wc.Reason = out.Err
						}
					}
					return Result{}, err
				}
				p.release(w, false)
				return convertOutcome(ctx, out)
			}
		case <-hbTimer.C:
			p.event(WorkerKilledHeartbeat)
			return Result{}, p.crashed(w, fmt.Sprintf("stopped heartbeating for %v", hbTimeout), true)
		case <-deadlineC:
			p.event(WorkerKilledDeadline)
			return Result{}, p.crashed(w, fmt.Sprintf("overran the %v hard deadline", p.cfg.Deadline), true)
		case <-ctxDone:
			// Graceful first: ask the child to stop and answer, which
			// keeps the worker for the next job.
			ctxDone = nil
			_ = frame.Write(w.stdin, FrameCancel, nil)
			graceC = time.After(p.cfg.CancelGrace)
		case <-graceC:
			// The child ignored the cancel; reclaim the worker. This is a
			// cancellation, not a point failure — no WorkerCrash.
			p.reap(w, true)
			return Result{}, ctx.Err()
		}
	}
}

// convertOutcome maps a child's outcome frame back to Run semantics.
func convertOutcome(ctx context.Context, o workerOutcome) (Result, error) {
	var res Result
	if len(o.Result) > 0 {
		r, err := UnmarshalResult(o.Result)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: worker result corrupt in transit: %w", err)
		}
		res = r
	}
	switch {
	case o.Err == "":
		return res, nil
	case o.Canceled:
		if err := ctx.Err(); err != nil {
			return res, err
		}
		return res, context.Canceled
	default:
		return res, errors.New(o.Err)
	}
}

// checkout returns an idle worker, reaping any that died while idle, or
// spawns a fresh one (after the crash-streak backoff, if any).
func (p *WorkerPool) checkout(ctx context.Context) (*worker, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errors.New("experiments: worker pool is closed")
		}
		var w *worker
		if n := len(p.idle); n > 0 {
			w = p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.busy[w] = struct{}{}
		}
		streak := p.streak
		p.mu.Unlock()

		if w != nil {
			select {
			case _, ok := <-w.frames:
				if !ok { // died while idle
					p.reap(w, false)
					continue
				}
				// A stray frame from an idle worker is a protocol
				// violation; treat the worker as unusable.
				p.reap(w, true)
				continue
			default:
				return w, nil
			}
		}

		if streak > 0 {
			shift := streak - 1
			if shift > 16 {
				shift = 16
			}
			backoff := p.cfg.RestartBackoff << uint(shift)
			if backoff > p.cfg.MaxRestartBackoff {
				backoff = p.cfg.MaxRestartBackoff
			}
			p.event(WorkerRestartBackoff)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return p.spawn()
	}
}

// spawn starts one worker process.
func (p *WorkerPool) spawn() (*worker, error) {
	cmd := exec.Command(p.cfg.Command[0], p.cfg.Command[1:]...)
	cmd.Env = append(os.Environ(), p.cfg.Env...)
	if p.cfg.MemLimit > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMEMLIMIT=%d", p.cfg.MemLimit))
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("experiments: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("experiments: worker stdout: %w", err)
	}
	w := &worker{
		cmd:     cmd,
		stdin:   stdin,
		frames:  make(chan wireFrame),
		stderr:  &tailBuffer{max: 4096},
		waitErr: make(chan error, 1),
	}
	cmd.Stderr = w.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("experiments: starting worker: %w", err)
	}
	go func() {
		for {
			kind, payload, err := frame.Read(stdout)
			if err != nil {
				w.waitErr <- cmd.Wait()
				close(w.frames)
				return
			}
			w.frames <- wireFrame{kind, payload}
		}
	}()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.destroy(w, true)
		return nil, errors.New("experiments: worker pool is closed")
	}
	p.live[w] = struct{}{}
	p.busy[w] = struct{}{}
	p.mu.Unlock()
	p.event(WorkerSpawned)
	return w, nil
}

// release returns a worker to the idle list (or reaps it when the pool
// closed meanwhile, or drop is set). A released worker resets the
// crash streak: the pool is healthy again.
func (p *WorkerPool) release(w *worker, drop bool) {
	p.mu.Lock()
	delete(p.busy, w)
	closed := p.closed
	if !drop && !closed {
		p.idle = append(p.idle, w)
		p.streak = 0
	}
	p.mu.Unlock()
	if drop || closed {
		p.destroy(w, true)
	}
}

// crashed harvests a dead (or about-to-be-killed) worker into a
// *WorkerCrash, removes it from the pool, and bumps the crash streak.
// kill forces a SIGKILL first (heartbeat loss, deadline, OOM reap).
func (p *WorkerPool) crashed(w *worker, reason string, kill bool) error {
	p.reap(w, kill)
	p.event(WorkerCrashed)
	p.mu.Lock()
	p.streak++
	p.mu.Unlock()

	wc := &WorkerCrash{Reason: reason, ExitCode: -1}
	select {
	case err := <-w.waitErr:
		wc.ExitCode, wc.Signal = exitInfo(err)
	case <-time.After(5 * time.Second):
		// Wait is wedged (should not happen after SIGKILL); report what
		// we have rather than hanging the sweep.
	}
	wc.StderrTail = w.stderr.String()
	return wc
}

// reap removes a worker from the pool: SIGKILL when kill is set (a
// stdin close otherwise, letting a live child exit cleanly on EOF), and
// a drain of its frame channel so the reader goroutine can exit.
func (p *WorkerPool) reap(w *worker, kill bool) { p.destroy(w, kill) }

func (p *WorkerPool) destroy(w *worker, kill bool) {
	if kill && w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.stdin.Close()
	p.forget(w)
	go func() { // drain any in-flight frames until the reader closes
		for range w.frames {
		}
	}()
}

func (p *WorkerPool) forget(w *worker) {
	p.mu.Lock()
	delete(p.live, w)
	delete(p.busy, w)
	p.mu.Unlock()
}

// exitInfo extracts exit code and terminating signal from a Wait error.
func exitInfo(err error) (code int, sig string) {
	code = -1
	if err == nil {
		return 0, ""
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok {
			if ws.Signaled() {
				sig = ws.Signal().String()
			}
			if ws.Exited() {
				code = ws.ExitStatus()
			}
		}
	}
	return code, sig
}

// KillOneBusy SIGKILLs one worker that is currently running a job — the
// chaos harness's mid-point worker murder. Returns false when no worker
// is busy.
func (p *WorkerPool) KillOneBusy() bool {
	p.mu.Lock()
	var victim *worker
	for w := range p.busy {
		victim = w
		break
	}
	p.mu.Unlock()
	if victim == nil {
		return false
	}
	if victim.cmd.Process != nil {
		victim.cmd.Process.Kill()
	}
	return true
}

// Close kills every worker and refuses further Executes. Safe to call
// with Executes in flight: they observe their worker's death and fail.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	p.closed = true
	ws := make([]*worker, 0, len(p.live))
	for w := range p.live {
		ws = append(ws, w)
	}
	p.idle = nil
	p.mu.Unlock()
	for _, w := range ws {
		p.destroy(w, true)
	}
}
