package main

// The job registry: every sweep the service accepts is a job with a
// stable identity, an in-memory frame sequence, and (when -dir is set) a
// durable result log (resultlog.go) behind it. The registry is what
// turns the at-most-once NDJSON stream of PR 6 into exactly-once
// delivery:
//
//   - identity: an explicit Idempotency-Key header names the job
//     (sha256 of the key); without one the job is content-addressed
//     (sha256 over the compiled point fingerprints), so identical
//     re-POSTs resolve to the same log either way;
//   - frames: each point index is appended at most once, by whichever
//     producer (live handler, boot replay, keyed re-run) finishes it
//     first; the frame's 1-based seq is its position, and the bytes at
//     a given seq never change — the resume contract;
//   - visibility: a frame joins the sequence streams read only after
//     its fsync returns, so a crash can never retract a seq a client
//     has already consumed;
//   - completion: exactly one summary frame, appended only when every
//     index has a logged success. A run that is cancelled or fails
//     points leaves the job idle and incomplete, settled with an 'X'
//     frame; the next POST with the same identity re-runs it through
//     normal admission, resuming the log where it stopped (and hitting
//     the result cache for the points already done). A
//     drain settles nothing: the open log is what boot replay resumes;
//   - lifecycle: entries (and their *.results files, via resultPinned)
//     are pinned while a producer is active, a stream is attached, a
//     boot replay is pending, or within the -results-keep window of the
//     last touch; past that the registry forgets them and the janitor
//     may collect the file. A later GET or keyed POST reloads the log
//     from disk.

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// contentIdentity derives the request's content fingerprint (and the
// default job ID) from the compiled points: their fingerprints already
// content-address every knob that shapes a result, in request order.
func contentIdentity(pts []experiments.SweepPoint) string {
	h := sha256.New()
	h.Write([]byte("rfsimd-job-v1\n"))
	for i := range pts {
		h.Write([]byte(pts[i].Fingerprint))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jobIDFromKey derives the job ID for an explicit Idempotency-Key. The
// hash makes any key filename-safe and fixed-length.
func jobIDFromKey(key string) string {
	h := sha256.Sum256([]byte("rfsimd-idempotency-key\n" + key))
	return hex.EncodeToString(h[:])
}

// validJobID gates path-derived lookups: IDs are exactly the hex sha256
// form both derivations produce, so a crafted GET cannot escape the
// artifact directory or name foreign files.
func validJobID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// errJobConflict is the 409: an Idempotency-Key reused with a different
// request body.
var errJobConflict = errors.New("idempotency key was already used with a different sweep body")

// jobState classifies an entry for the attach decision.
type jobState int

const (
	jobIdle jobState = iota // no producer running, log incomplete
	jobLive                 // a producer is appending now
	jobDone                 // summary frame logged
)

// jobEntry is one job's in-memory state. lines is append-only and its
// elements are immutable, so a stream may hold a snapshot slice and
// write it outside the lock.
type jobEntry struct {
	id     string
	header resultLogHeader

	mu      sync.Mutex
	cond    *sync.Cond
	lines   [][]byte     // synced frame payloads (NDJSON sans newline); seq = index+1
	seen    map[int]bool // point indices with a logged outcome
	done    bool
	settled bool      // the log's last frame is an 'X'
	held    bool      // open at boot and not yet replayed
	active  int       // producers (handlers/replay) appending now
	readers int       // attached streams
	last    time.Time // last producer/reader activity, for the keep window
	log     *os.File  // the open result log (appendResultFrame)
	logErr  bool      // an append failed; durability degraded to memory-only
}

func (e *jobEntry) broadcast() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// state classifies the entry now. Callers hold e.mu.
func (e *jobEntry) stateLocked() jobState {
	switch {
	case e.done:
		return jobDone
	case e.active > 0:
		return jobLive
	default:
		return jobIdle
	}
}

// lineIndex peeks the "index"/"type" of a logged frame to rebuild seen.
type lineIndex struct {
	Type  string `json:"type"`
	Index int    `json:"index"`
}

// absorb replaces the entry's frame state with a parsed log. Callers
// hold e.mu. Safe even with attached readers: the parsed prefix is
// byte-identical to what attach loaded (both stop at the first bad
// frame), so snapshot cursors stay aligned.
func (e *jobEntry) absorbLocked(d resultLogData) {
	e.lines = d.lines
	e.done = d.done
	e.settled = d.settled
	e.seen = make(map[int]bool, len(d.lines))
	for _, blob := range d.lines {
		var li lineIndex
		if json.Unmarshal(blob, &li) == nil && li.Type == "outcome" {
			e.seen[li.Index] = true
		}
	}
}

// jobRegistry owns every in-memory entry and the artifact-directory
// mapping. Safe for concurrent use.
type jobRegistry struct {
	dir     string        // "" = memory-only (no durable logs)
	keep    time.Duration // recently-touched pin/retention window
	metrics *obs.ServiceMetrics
	now     func() time.Time

	mu      sync.Mutex
	entries map[string]*jobEntry
}

func newJobRegistry(dir string, keep time.Duration, m *obs.ServiceMetrics) *jobRegistry {
	if keep <= 0 {
		keep = 5 * time.Minute
	}
	return &jobRegistry{
		dir:     dir,
		keep:    keep,
		metrics: m,
		now:     time.Now,
		entries: map[string]*jobEntry{},
	}
}

func (r *jobRegistry) path(id string) string {
	return filepath.Join(r.dir, id+resultLogSuffix)
}

// lookup returns the entry for id, reloading it from the artifact
// directory if the registry has forgotten it. nil means the job is
// unknown (404).
func (r *jobRegistry) lookup(id string) *jobEntry {
	if !validJobID(id) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		return e
	}
	if r.dir == "" {
		return nil
	}
	d, err := loadResultLog(r.path(id))
	if err != nil || d.header.Job != id {
		return nil
	}
	e := r.newEntryLocked(id, d.header)
	e.absorbLocked(d)
	return e
}

// attach resolves (creating if needed) the entry for a POST. It is the
// conflict gate: a keyed request whose body fingerprint differs from
// the job's recorded one is refused. The returned state tells the
// handler whether to serve the existing job (live/done) or run it. A
// new entry's header records spec, the raw request, and the accept
// time; startProducer makes them durable.
func (r *jobRegistry) attach(id, reqFP string, points int, spec json.RawMessage) (*jobEntry, jobState, error) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok && r.dir != "" {
		if d, err := loadResultLog(r.path(id)); err == nil && d.header.Job == id {
			e = r.newEntryLocked(id, d.header)
			e.absorbLocked(d)
			ok = true
		}
	}
	if !ok {
		e = r.newEntryLocked(id, resultLogHeader{
			Job: id, Req: reqFP, Points: points, Spec: spec, Accepted: r.now().UnixNano(),
		})
	}
	r.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.header.Req != reqFP {
		return nil, jobIdle, errJobConflict
	}
	e.last = r.now()
	return e, e.stateLocked(), nil
}

// newEntryLocked builds and registers a fresh entry. Callers hold r.mu.
func (r *jobRegistry) newEntryLocked(id string, hdr resultLogHeader) *jobEntry {
	e := &jobEntry{id: id, header: hdr, seen: map[int]bool{}, last: r.now()}
	e.cond = sync.NewCond(&e.mu)
	r.entries[id] = e
	return e
}

// startProducer registers a producer on the entry (a live handler past
// admission, or a boot replay) and opens the durable log if the
// artifact directory has one, writing the header of a new log. The
// error path means the log cannot be opened or created — the job has
// no durability and must be refused.
func (r *jobRegistry) startProducer(e *jobEntry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.dir != "" && e.log == nil && !e.logErr {
		lg, d, err := openResultLog(r.path(e.id), e.header)
		if err != nil {
			return err
		}
		if d.torn > 0 {
			r.metrics.ResultTornTruncated()
		}
		e.absorbLocked(d) // disk is authoritative for resume state
		e.log = lg
	}
	e.active++
	e.last = r.now()
	return nil
}

// endProducer retires a producer; waiting streams re-evaluate (an idle
// incomplete job ends their tail with an "idle" line). settle marks a
// terminal exit that is not a drain: the last producer out of an
// unsealed job appends an 'X' so boot replay leaves the log alone —
// unless the job still awaits its own boot replay.
func (r *jobRegistry) endProducer(e *jobEntry, settle bool) {
	e.mu.Lock()
	e.active--
	if settle && e.active == 0 && !e.held && !e.done && !e.settled && e.log != nil {
		e.appendLocked(resultFrameSettled, nil)
	}
	e.last = r.now()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// recoverOpen registers every open log in the artifact directory under
// a replay hold and returns them oldest accept first. A log that does
// not parse is skipped: its job cannot be recompiled.
func (r *jobRegistry) recoverOpen() ([]*jobEntry, error) {
	if r.dir == "" {
		return nil, nil
	}
	files, err := os.ReadDir(r.dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("scanning result logs: %w", err)
	}
	var open []*jobEntry
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range files {
		id, ok := strings.CutSuffix(f.Name(), resultLogSuffix)
		if !ok || !validJobID(id) {
			continue
		}
		d, err := loadResultLog(r.path(id))
		if err != nil || d.header.Job != id || !d.open() {
			continue
		}
		e := r.newEntryLocked(id, d.header)
		e.absorbLocked(d)
		e.held = true
		open = append(open, e)
	}
	slices.SortFunc(open, func(a, b *jobEntry) int {
		return cmp.Or(cmp.Compare(a.header.Accepted, b.header.Accepted), strings.Compare(a.id, b.id))
	})
	return open, nil
}

// releaseHold ends an entry's boot-replay hold.
func (r *jobRegistry) releaseHold(e *jobEntry) {
	e.mu.Lock()
	e.held = false
	e.last = r.now()
	e.mu.Unlock()
}

// heldEntries counts the recovered jobs still awaiting or running
// their boot replay.
func (r *jobRegistry) heldEntries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		e.mu.Lock()
		if e.held {
			n++
		}
		e.mu.Unlock()
	}
	return n
}

// appendOutcome logs one successful point outcome, assigning its seq,
// and reports whether it did. Exactly the first producer to finish an
// index appends it; later producers stream their own (transient,
// seq-less) line instead.
func (r *jobRegistry) appendOutcome(e *jobEntry, line outcomeLine) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done || e.seen[line.Index] {
		return false
	}
	line.Seq = int64(len(e.lines) + 1)
	blob, err := json.Marshal(line)
	if err != nil {
		return false
	}
	e.appendLocked(resultFrameOutcome, blob)
	e.seen[line.Index] = true
	r.metrics.ResultFrameAppended()
	return true
}

// appendSummary seals a complete job: every index has a logged success.
// Incomplete or failed runs append nothing — the job stays idle and
// resumable.
func (r *jobRegistry) appendSummary(e *jobEntry, sum summaryLine) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done || len(e.seen) < e.header.Points {
		return false
	}
	sum.Seq = int64(len(e.lines) + 1)
	blob, err := json.Marshal(sum)
	if err != nil {
		return false
	}
	e.appendLocked(resultFrameSummary, blob)
	e.done = true
	r.metrics.ResultFrameAppended()
	return true
}

// appendLocked writes one frame to disk (when backed) and fsyncs it,
// and only then makes it visible: it joins lines and waiting streams
// wake. An 'X' frame is on disk only: it has no seq and is never
// streamed. A disk append failure degrades the entry to memory-only
// durability — honest degraded service beats refusing results we
// already computed; the on-disk prefix stays valid for a later resume.
// Callers hold e.mu.
func (e *jobEntry) appendLocked(kind byte, blob []byte) {
	if e.log != nil {
		if err := appendResultFrame(e.log, kind, blob); err != nil {
			e.log.Close()
			e.log = nil
			e.logErr = true
		}
	}
	e.settled = kind == resultFrameSettled
	if !e.settled {
		e.lines = append(e.lines, blob)
	}
	e.cond.Broadcast()
}

// addReader / dropReader bracket one attached stream.
func (r *jobRegistry) addReader(e *jobEntry) {
	e.mu.Lock()
	e.readers++
	e.last = r.now()
	e.mu.Unlock()
}

func (r *jobRegistry) dropReader(e *jobEntry) {
	e.mu.Lock()
	e.readers--
	e.last = r.now()
	e.mu.Unlock()
}

// resultPinned is the janitor gate for <id>.results files: live,
// attached, replay-pending or recently-touched jobs must keep their
// logs.
func (r *jobRegistry) resultPinned(name string) bool {
	id := name[:len(name)-len(resultLogSuffix)]
	r.mu.Lock()
	e, ok := r.entries[id]
	r.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.held || e.active > 0 || e.readers > 0 || r.now().Sub(e.last) < r.keep
}

// prune forgets idle entries past the keep window, closing their log
// handles. The daemon runs it every -gc-interval.
func (r *jobRegistry) prune() {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, e := range r.entries {
		e.mu.Lock()
		idle := !e.held && e.active == 0 && e.readers == 0 && now.Sub(e.last) >= r.keep
		if idle && e.log != nil {
			e.log.Close()
			e.log = nil
		}
		e.mu.Unlock()
		if idle {
			delete(r.entries, id)
		}
	}
}

// closeAll closes every open log handle (graceful shutdown; a crash,
// by definition, does not get to call it).
func (r *jobRegistry) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		e.mu.Lock()
		if e.log != nil {
			e.log.Close()
			e.log = nil
		}
		e.mu.Unlock()
	}
}

// liveEntries reports entries with an active producer or reader (a
// post-drain invariant for the chaos harness: zero).
func (r *jobRegistry) liveEntries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		e.mu.Lock()
		if e.active > 0 || e.readers > 0 {
			n++
		}
		e.mu.Unlock()
	}
	return n
}

// jobSnapshot reads one consistent view of the streamable state.
type jobSnapshot struct {
	lines  [][]byte // visible frames past the cursor
	done   bool
	active int
}

// snapshotFrom returns the visible frames past cursor (a 0-based frame
// count already consumed) plus the state a stream needs to decide
// whether to wait, finish, or declare the job idle.
func (e *jobEntry) snapshotFrom(cursor int) jobSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := jobSnapshot{done: e.done, active: e.active}
	if cursor < len(e.lines) {
		s.lines = e.lines[cursor:]
	}
	return s
}

// waitChange blocks until the visible frames grow past cursor, the job
// completes or goes idle, or the caller's context (bridged via
// broadcast) fires. It returns the fresh snapshot.
func (e *jobEntry) waitChange(cursor int, cancelled func() bool) jobSnapshot {
	e.mu.Lock()
	for cursor >= len(e.lines) && !e.done && e.active > 0 && !cancelled() {
		e.cond.Wait()
	}
	e.mu.Unlock()
	return e.snapshotFrom(cursor)
}

// jobLine is the first NDJSON record of every job-aware stream: the ID
// the client resumes with and the point count it should expect.
type jobLine struct {
	Type   string `json:"type"` // "job"
	ID     string `json:"id"`
	Points int    `json:"points"`
}

// idleLine ends a stream whose job is incomplete with no producer: the
// client should re-POST (attach) to restart it rather than keep
// polling.
type idleLine struct {
	Type string `json:"type"` // "idle"
}

func mustMarshal(v interface{}) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal %T: %v", v, err))
	}
	return blob
}
