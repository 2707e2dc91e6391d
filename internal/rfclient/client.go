// Package rfclient is the fault-tolerant sweep client: submit a sweep
// to an rfsimd daemon and follow its NDJSON stream to completion, no
// matter how many times the connection dies in between. It is the
// client half of exactly-once delivery (the server half is the durable
// per-job result log behind GET /v1/jobs/{id}/results):
//
//   - every POST carries the caller's Idempotency-Key (when set), so a
//     retried submit attaches to the running or finished job instead of
//     recomputing it;
//   - the stream's "job" preamble names the job ID, and every durable
//     line carries its seq — the client tracks the highest seq consumed
//     and resumes a broken stream with GET ?from=cursor+1, re-reading
//     only what it missed;
//   - outcomes are delivered to the caller exactly once per point
//     index (dedup by index survives even a timeline reset, e.g. the
//     janitor collecting an idle log between attempts), bit-identical
//     to an uninterrupted run because the server streams the logged
//     frame bytes;
//   - transient failures back off exponentially with seeded jitter,
//     429/422/503 honor the server's Retry-After, and a per-line stall
//     watchdog aborts attempts that hang mid-body (a stalled proxy, a
//     half-dead NAT) so the budget is spent on reconnects, not waits;
//   - the attempt budget counts consecutive attempts WITHOUT progress:
//     as long as frames keep arriving the client keeps going, so a
//     slow flaky link does not exhaust a fixed retry count.
//
// Terminal states: a durable summary (the job sealed complete) returns
// nil; a clean run with failed points returns ErrPointsFailed with the
// summary (re-running is the caller's policy call); a permanent HTTP
// refusal (400/409/413) returns PermanentError.
package rfclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Config tunes one Run. Zero values take the noted defaults.
type Config struct {
	// BaseURL is the daemon (or chaos-proxy) root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient). The client
	// never sets request timeouts on it — per-attempt bounds come from
	// StallTimeout and the Run context.
	HTTP *http.Client
	// IdempotencyKey names the job across retries and restarts. Empty
	// means content-addressed identity (the server derives it; resume
	// still works via the job line's ID).
	IdempotencyKey string
	// MaxAttempts bounds consecutive attempts that make no progress
	// (no new durable frame, no new job state). 0 = 12.
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the exponential backoff between
	// failed attempts. 0 = 50ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// StallTimeout is the per-line watchdog: an attempt whose stream
	// delivers nothing for this long is cut and retried. 0 = 30s.
	StallTimeout time.Duration
	// Seed drives the backoff jitter (deterministic for tests).
	Seed int64
}

// Outcome is one delivered point result. Result holds the raw JSON of
// the experiments.Result — raw so byte-identity survives the trip.
type Outcome struct {
	Seq         int64           `json:"seq,omitempty"`
	Index       int             `json:"index"`
	ID          string          `json:"id"`
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Recovered   bool            `json:"recovered,omitempty"`
	Attempts    int             `json:"attempts"`
	Error       string          `json:"error,omitempty"`
	CrashDump   string          `json:"crash_dump,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// Summary is the terminal record of a run.
type Summary struct {
	Seq          int64   `json:"seq,omitempty"`
	Points       int     `json:"points"`
	Failed       int     `json:"failed"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	Error        string  `json:"error,omitempty"`
}

// Stats counts what one Run survived — the storm harness asserts the
// faults actually bit (Resumes > 0) and measures delivery overhead.
type Stats struct {
	Posts      int // POST /v1/sweep attempts
	Resumes    int // GET ?from= attempts
	Duplicates int // durable frames re-read and suppressed by dedup
	Backoffs   int // waits between attempts (backoff or Retry-After)
	JobID      string
	Cursor     int64 // highest seq consumed
}

// PermanentError wraps an HTTP refusal retrying cannot fix.
type PermanentError struct {
	Status int
	Body   string
}

func (e *PermanentError) Error() string {
	return fmt.Sprintf("permanent HTTP %d: %s", e.Status, e.Body)
}

// ErrPointsFailed: the sweep ran to completion but some points failed;
// the returned Summary has the count. The job is left idle server-side
// and a re-Run would retry just the failed points through the cache.
var ErrPointsFailed = errors.New("sweep completed with failed points")

// ErrAttemptsExhausted: MaxAttempts consecutive attempts made no
// progress.
var ErrAttemptsExhausted = errors.New("attempt budget exhausted without progress")

// Client is a reusable handle: one Config, many Runs.
type Client struct {
	cfg Config
}

func New(cfg Config) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 12
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	return &Client{cfg: cfg}
}

// run is one Run's mutable state.
type run struct {
	c         *Client
	body      []byte
	onOutcome func(Outcome)

	jobID     string
	points    int
	cursor    int64        // highest durable seq consumed
	delivered map[int]bool // point indices handed to onOutcome
	stats     Stats
	rng       *rand.Rand

	// terminal state, set by one attempt's stream
	summary  *Summary
	lastErr  error
	failures string // last failed-outcome error text, for diagnostics
}

// Run submits body (a SweepRequest JSON) and follows it to a terminal
// state, delivering each successful point outcome to onOutcome exactly
// once. It returns the terminal summary; see the package doc for the
// error contract. onOutcome runs on the streaming goroutine — keep it
// cheap or hand off.
func (c *Client) Run(ctx context.Context, body []byte, onOutcome func(Outcome)) (Summary, Stats, error) {
	r := &run{
		c: c, body: body, onOutcome: onOutcome,
		delivered: map[int]bool{},
		rng:       rand.New(rand.NewSource(c.cfg.Seed)),
	}
	noProgress := 0
	backoffN := 0
	for {
		if err := ctx.Err(); err != nil {
			return Summary{}, r.stats, err
		}
		progressed, retryAfter, err := r.attempt(ctx)
		if r.summary != nil {
			r.stats.JobID, r.stats.Cursor = r.jobID, r.cursor
			if r.summary.Failed > 0 || r.summary.Error != "" {
				terr := ErrPointsFailed
				if r.summary.Error != "" {
					terr = fmt.Errorf("%w: %s", ErrPointsFailed, r.summary.Error)
				} else if r.failures != "" {
					terr = fmt.Errorf("%w: last error: %s", ErrPointsFailed, r.failures)
				}
				return *r.summary, r.stats, terr
			}
			return *r.summary, r.stats, nil
		}
		var perm *PermanentError
		if errors.As(err, &perm) {
			r.stats.JobID, r.stats.Cursor = r.jobID, r.cursor
			return Summary{}, r.stats, err
		}
		if progressed {
			noProgress, backoffN = 0, 0
		} else {
			noProgress++
			if noProgress >= c.cfg.MaxAttempts {
				r.stats.JobID, r.stats.Cursor = r.jobID, r.cursor
				last := r.lastErr
				if last == nil {
					last = err
				}
				return Summary{}, r.stats, fmt.Errorf("%w after %d attempts (last: %v)", ErrAttemptsExhausted, noProgress, last)
			}
		}
		// Wait out the server's Retry-After when it gave one, otherwise
		// back off exponentially with jitter so a reconnecting fleet
		// does not synchronize into a thundering herd.
		wait := retryAfter
		if wait <= 0 {
			wait = c.backoff(backoffN, r.rng)
			backoffN++
		}
		r.stats.Backoffs++
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return Summary{}, r.stats, ctx.Err()
		}
	}
}

func (c *Client) backoff(n int, rng *rand.Rand) time.Duration {
	d := c.cfg.BaseBackoff << uint(n)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	// Full jitter on the upper half: [d/2, d).
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// attempt makes one HTTP round: a resume GET when the job and cursor
// are known, otherwise a POST. It reports whether the attempt made
// progress and any Retry-After the server supplied.
func (r *run) attempt(ctx context.Context) (progressed bool, retryAfter time.Duration, err error) {
	var req *http.Request
	if r.jobID != "" && r.resumable() {
		r.stats.Resumes++
		url := fmt.Sprintf("%s/v1/jobs/%s/results?from=%d", r.c.cfg.BaseURL, r.jobID, r.cursor+1)
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	} else {
		r.stats.Posts++
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, r.c.cfg.BaseURL+"/v1/sweep", bytes.NewReader(r.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			if r.c.cfg.IdempotencyKey != "" {
				req.Header.Set("Idempotency-Key", r.c.cfg.IdempotencyKey)
			}
		}
	}
	if err != nil {
		return false, 0, err
	}

	// The stall watchdog cancels this attempt (only) if the stream goes
	// quiet; every line read rearms it.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(r.c.cfg.StallTimeout, cancel)
	defer watchdog.Stop()
	req = req.WithContext(actx)

	resp, err := r.c.cfg.HTTP.Do(req)
	if err != nil {
		r.lastErr = err
		return false, 0, err
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		return r.consume(resp.Body, watchdog)
	case http.StatusNotFound:
		// The job is gone (log collected, or the daemon lost it): fall
		// back to a fresh POST. The index-dedup map keeps delivery
		// exactly-once even though the new run's seqs restart.
		r.forgetJob()
		r.lastErr = fmt.Errorf("job expired server-side (404)")
		return false, 0, r.lastErr
	case http.StatusTooManyRequests, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
		ra := parseRetryAfter(resp.Header.Get("Retry-After"))
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		r.lastErr = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return false, ra, r.lastErr
	case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, 0, &PermanentError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		r.lastErr = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return false, 0, r.lastErr
	}
}

// resumable reports whether a GET can finish the job from here: only
// once a durable frame was consumed (cursor > 0) is the resume endpoint
// guaranteed to know the job. Before that, re-POSTing is both correct
// (idempotent identity) and necessary (the job may never have been
// accepted).
func (r *run) resumable() bool { return r.cursor > 0 }

func (r *run) forgetJob() {
	r.jobID = ""
	r.cursor = 0
}

// wireLine is the decode union of every stream record.
type wireLine struct {
	Type string `json:"type"`
	// job
	ID     string `json:"id"`
	Points int    `json:"points"`
	// outcome + summary (Outcome's fields are a superset; ID overlaps)
	Seq          int64           `json:"seq"`
	Index        int             `json:"index"`
	Fingerprint  string          `json:"fingerprint"`
	Cached       bool            `json:"cached"`
	Recovered    bool            `json:"recovered"`
	Attempts     int             `json:"attempts"`
	Error        string          `json:"error"`
	CrashDump    string          `json:"crash_dump"`
	Result       json.RawMessage `json:"result"`
	Failed       int             `json:"failed"`
	CacheHitRate float64         `json:"cache_hit_rate"`
	ElapsedMS    int64           `json:"elapsed_ms"`
}

// consume reads one NDJSON stream to its end: durable summary or a
// clean transient one is terminal, an idle line forces a re-POST, and
// a cut stream returns with whatever progress was banked.
func (r *run) consume(body io.Reader, watchdog *time.Timer) (progressed bool, retryAfter time.Duration, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	sawTerminal := false
	for sc.Scan() {
		watchdog.Reset(r.c.cfg.StallTimeout)
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec wireLine
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			// A torn line: the connection died mid-write. Everything
			// before it was consumed; resume picks up from the cursor.
			r.lastErr = fmt.Errorf("torn stream line: %v", uerr)
			return progressed, 0, r.lastErr
		}
		switch rec.Type {
		case "job":
			if r.jobID != "" && r.jobID != rec.ID {
				// The identity moved (should not happen): restart dedup'd.
				r.forgetJob()
			}
			// Learning the ID the first time is progress (resume is now
			// possible); re-reading it on every reconnect is not, or a
			// link dying right after the preamble could spin forever.
			if r.jobID == "" {
				progressed = true
			}
			r.jobID, r.points = rec.ID, rec.Points
		case "outcome":
			if rec.Seq > 0 {
				if rec.Seq <= r.cursor {
					r.stats.Duplicates++
					continue // already consumed on an earlier attempt
				}
				r.cursor = rec.Seq
				progressed = true
			}
			if rec.Error != "" {
				r.failures = rec.Error
				continue // failures are summarized, not delivered
			}
			if r.delivered[rec.Index] {
				if rec.Seq == 0 {
					r.stats.Duplicates++
				}
				continue
			}
			r.delivered[rec.Index] = true
			if r.onOutcome != nil {
				r.onOutcome(Outcome{
					Seq: rec.Seq, Index: rec.Index, ID: rec.ID,
					Fingerprint: rec.Fingerprint, Cached: rec.Cached,
					Recovered: rec.Recovered, Attempts: rec.Attempts,
					CrashDump: rec.CrashDump,
					Result:    append(json.RawMessage(nil), rec.Result...),
				})
			}
		case "summary":
			if rec.Seq > 0 {
				if rec.Seq > r.cursor {
					r.cursor = rec.Seq
				}
				// Durable: the job is sealed complete. Terminal.
				r.summary = &Summary{Seq: rec.Seq, Points: rec.Points, Failed: rec.Failed,
					CacheHitRate: rec.CacheHitRate, ElapsedMS: rec.ElapsedMS, Error: rec.Error}
				return true, 0, nil
			}
			// Transient: the run ended without sealing. A clean-but-
			// failing run is terminal (re-running is the caller's call);
			// an interrupted one (deadline, drain) retries.
			sawTerminal = true
			if rec.Error == "" {
				r.summary = &Summary{Points: rec.Points, Failed: rec.Failed,
					CacheHitRate: rec.CacheHitRate, ElapsedMS: rec.ElapsedMS}
				return true, 0, nil
			}
			// No new durable frames means no progress: a job that can
			// never finish (e.g. under a too-tight server deadline) must
			// exhaust the budget, not loop.
			r.lastErr = fmt.Errorf("sweep interrupted server-side: %s", rec.Error)
		case "idle":
			// The job is incomplete with no producer: only a fresh POST
			// restarts the run. Clearing the ID forces one; the cursor
			// and the delivered map survive, so nothing replays twice.
			sawTerminal = true
			r.lastErr = errors.New("job idle and incomplete; re-submitting")
			r.jobID = ""
		default:
			// Unknown record types are forward-compatible noise.
		}
	}
	if serr := sc.Err(); serr != nil {
		r.lastErr = serr
		return progressed, 0, serr
	}
	if !sawTerminal {
		// EOF without a terminal line: the connection was cut cleanly
		// enough to look like end-of-stream. Retry from the cursor.
		r.lastErr = errors.New("stream ended without a terminal record")
	}
	return progressed, 0, r.lastErr
}

// parseRetryAfter reads the delay-seconds form (the only one rfsimd
// emits).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// CollectOutcomes is a convenience onOutcome: gather results by index,
// concurrency-safe.
type CollectOutcomes struct {
	mu  sync.Mutex
	m   map[int]Outcome
	dup int
}

func NewCollector() *CollectOutcomes {
	return &CollectOutcomes{m: map[int]Outcome{}}
}

// Add records one outcome; a second delivery for an index is counted —
// the exactly-once violation the harness asserts never happens.
func (c *CollectOutcomes) Add(o Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[o.Index]; ok {
		c.dup++
		return
	}
	c.m[o.Index] = o
}

// Outcomes returns the collected map; Duplicates the violations.
func (c *CollectOutcomes) Outcomes() map[int]Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]Outcome, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

func (c *CollectOutcomes) Duplicates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dup
}
