package main

// The durable per-job result log: every point outcome a job produces is
// appended, exactly once per point index, as a CRC64-framed record
// (internal/frame — the same frame format the worker pipe speaks) in
// the artifact directory, followed by one summary frame when the job
// completes. The log is the server half of exactly-once
// delivery: GET /v1/jobs/{id}/results?from=<cursor> replays it from any
// cursor, so a client that lost its connection — or outlived a daemon
// restart — re-reads only what it missed, bit-identical. It is also the
// only durable record that a job was accepted: the header carries the
// raw request, so a log that is still open at boot is a job to replay.
//
// File layout (<dir>/<jobID>.results):
//
//	frame 'H'  resultLogHeader JSON   (job ID, request fingerprint, points,
//	                                   raw request, accept time)
//	frame 'O'  one outcome NDJSON line, carrying its 1-based "seq"
//	frame 'X'  empty: settled incomplete (no seq, never streamed)
//	...
//	frame 'S'  the summary NDJSON line (present only when complete)
//
// A log is sealed when it ends in 'S', settled when it ends in 'X' (the
// client disconnected, the deadline passed, points failed, or the spec
// no longer compiles at replay), and open otherwise. A later producer
// may append 'O' frames after an 'X', which opens the log again.
//
// Durability contract, shared with jobs.go:
//
//   - the header is fsync'd, and so is the directory entry of a new
//     file, before any simulation runs;
//   - a frame's seq is exposed to a stream only AFTER the fsync covering
//     it returns, so a crash can tear off only frames no client has ever
//     seen — the resume cursor never moves backwards;
//   - appends are fsync-batched (-results-sync) only while nothing is
//     attached (boot replay); a live stream syncs every frame;
//   - a torn tail (crash mid-append) is truncated at reopen and counted
//     — losing the record the crash interrupted is the crash-only
//     contract, losing the log is not;
//   - the janitor GCs *.results under the disk quotas, but never while
//     the job is live, recently read or awaiting boot replay
//     (jobRegistry.resultPinned).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/frame"
)

// Result-log frame kinds.
const (
	resultFrameHeader  = 'H'
	resultFrameOutcome = 'O'
	resultFrameSummary = 'S'
	resultFrameSettled = 'X'
)

// defaultResultsSyncEvery is the unattached-append fsync batch size.
const defaultResultsSyncEvery = 16

// resultLogSuffix is the artifact-directory suffix the janitor matches
// and the registry pins.
const resultLogSuffix = ".results"

// resultLogHeader is the 'H' frame: enough identity to detect an
// Idempotency-Key reused with a different request body (409) across
// restarts, the point count a resumed stream reports in its job line,
// and the accepted request a boot replay recompiles. Logs written
// before Spec existed parse with none and are never replayed.
type resultLogHeader struct {
	Job      string          `json:"job"`                // job ID (hex, also the file's base name)
	Req      string          `json:"req"`                // request content fingerprint
	Points   int             `json:"points"`             // requested point count
	Spec     json.RawMessage `json:"spec,omitempty"`     // the raw SweepRequest
	Accepted int64           `json:"accepted,omitempty"` // accept time, Unix nanoseconds
}

// resultLogData is the parsed prefix of one log file.
type resultLogData struct {
	header  resultLogHeader
	lines   [][]byte // 'O' and 'S' frame payloads in order; seq = index+1
	done    bool     // the last line is the summary frame
	settled bool     // the last frame is an 'X'
	torn    int64    // bytes of torn/corrupt tail beyond the good prefix
	good    int64    // byte length of the parseable prefix
}

// open reports whether the log is an accepted job nobody settled: boot
// replay runs exactly these.
func (d resultLogData) open() bool {
	return len(d.header.Spec) > 0 && !d.done && !d.settled
}

// parseResultLog walks the frames of data, stopping at the first torn or
// corrupt frame (frames are not self-synchronizing, so everything past
// it is unreachable debt). An empty file parses to a zero value with
// header.Job == "".
func parseResultLog(data []byte) (resultLogData, error) {
	var d resultLogData
	if len(data) == 0 {
		return d, nil
	}
	r := bytes.NewReader(data)
	sawHeader := false
	for {
		kind, payload, err := frame.Read(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: keep the good prefix, count the rest.
			d.torn = int64(len(data)) - d.good
			break
		}
		switch {
		case !sawHeader:
			if kind != resultFrameHeader {
				return d, fmt.Errorf("result log: first frame is %q, want header", kind)
			}
			if err := json.Unmarshal(payload, &d.header); err != nil {
				return d, fmt.Errorf("result log: header: %w", err)
			}
			sawHeader = true
		case kind == resultFrameOutcome && !d.done:
			d.lines = append(d.lines, payload)
			d.settled = false
		case kind == resultFrameSettled && !d.done:
			d.settled = true
		case kind == resultFrameSummary && !d.done:
			d.lines = append(d.lines, payload)
			d.done = true
		default:
			return d, fmt.Errorf("result log: unexpected frame %q at seq %d", kind, len(d.lines)+1)
		}
		d.good = int64(len(data)) - int64(r.Len())
	}
	return d, nil
}

// loadResultLog reads a log without taking ownership: the GET/attach
// path uses it to serve completed (or abandoned) jobs that are no longer
// in memory. A missing file is (zero, os.ErrNotExist); a torn tail is
// simply not served (it was never exposed).
func loadResultLog(path string) (resultLogData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return resultLogData{}, err
	}
	return parseResultLog(data)
}

// resultLog is an open-for-append handle. Callers (jobEntry) serialize
// access; the handle itself only tracks the fsync debt.
type resultLog struct {
	f         *os.File
	path      string
	syncEvery int
	pending   int // appended frames not yet covered by an fsync
}

// openResultLog opens (or creates) the log for appending: it parses the
// existing prefix, truncates any torn tail so the next append cannot
// fuse with a half-written frame, verifies (or writes) the header, and
// returns the handle positioned at the end. The parsed data is the
// authoritative resume state — the caller replaces its in-memory view
// with it.
func openResultLog(path string, hdr resultLogHeader, syncEvery int) (*resultLog, resultLogData, error) {
	if syncEvery <= 0 {
		syncEvery = defaultResultsSyncEvery
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, resultLogData{}, fmt.Errorf("result log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, resultLogData{}, fmt.Errorf("result log: %w", err)
	}
	d, err := parseResultLog(data)
	if err != nil {
		f.Close()
		return nil, resultLogData{}, err
	}
	lg := &resultLog{f: f, path: path, syncEvery: syncEvery}
	if d.header.Job == "" {
		// Fresh (or wholly torn) log: start it with the header frame.
		if d.torn > 0 {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, d, fmt.Errorf("result log: %w", err)
			}
			d.good = 0
		}
		blob, err := json.Marshal(hdr)
		if err != nil {
			f.Close()
			return nil, d, fmt.Errorf("result log: %w", err)
		}
		if err := frame.Write(f, resultFrameHeader, blob); err != nil {
			f.Close()
			return nil, d, fmt.Errorf("result log: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, d, fmt.Errorf("result log: %w", err)
		}
		// The log is the job's only accept record: make its directory
		// entry as durable as its header.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, d, err
		}
		d.header = hdr
		return lg, d, nil
	}
	if d.header.Job != hdr.Job || d.header.Req != hdr.Req {
		f.Close()
		return nil, d, fmt.Errorf("result log %s: header names job %s req %s, want job %s req %s",
			path, d.header.Job, d.header.Req, hdr.Job, hdr.Req)
	}
	if d.torn > 0 {
		if err := f.Truncate(d.good); err != nil {
			f.Close()
			return nil, d, fmt.Errorf("result log: %w", err)
		}
	}
	if _, err := f.Seek(d.good, io.SeekStart); err != nil {
		f.Close()
		return nil, d, fmt.Errorf("result log: %w", err)
	}
	return lg, d, nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("result log: %w", err)
	}
	defer df.Close()
	if err := df.Sync(); err != nil {
		return fmt.Errorf("result log: %w", err)
	}
	return nil
}

// Append writes one frame. force (or a summary frame, or syncEvery of
// accumulated debt) fsyncs before returning; the caller must expose the
// frame's seq to streams only when synced is true.
func (lg *resultLog) Append(kind byte, payload []byte, force bool) (synced bool, err error) {
	if err := frame.Write(lg.f, kind, payload); err != nil {
		return false, fmt.Errorf("result log: %w", err)
	}
	lg.pending++
	if !force && kind != resultFrameSummary && lg.pending < lg.syncEvery {
		return false, nil
	}
	if err := lg.f.Sync(); err != nil {
		return false, fmt.Errorf("result log: %w", err)
	}
	lg.pending = 0
	return true, nil
}

// Sync flushes any batched append debt.
func (lg *resultLog) Sync() error {
	if lg.pending == 0 {
		return nil
	}
	if err := lg.f.Sync(); err != nil {
		return fmt.Errorf("result log: %w", err)
	}
	lg.pending = 0
	return nil
}

// Close releases the handle without syncing batched debt — mirroring
// what a crash would do, which is the only other way a log handle dies.
func (lg *resultLog) Close() error {
	if lg.f == nil {
		return nil
	}
	err := lg.f.Close()
	lg.f = nil
	return err
}
