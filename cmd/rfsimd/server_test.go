package main

// End-to-end tests of the sweep service over real HTTP (httptest):
// happy-path streaming, spec validation, admission control under a full
// queue, and mid-stream client disconnect cancelling the simulation.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func postSweep(t *testing.T, ts *httptest.Server, req SweepRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, blob
}

func fetchMetrics(t *testing.T, ts *httptest.Server) (snap struct {
	Service struct {
		JobsAdmitted    int64 `json:"jobs_admitted"`
		JobsRejected    int64 `json:"jobs_rejected"`
		JobsShedBatch   int64 `json:"jobs_shed_batch"`
		JobsQuarantined int64 `json:"jobs_quarantined"`
		JobsCompleted   int64 `json:"jobs_completed"`
		JobsFailed      int64 `json:"jobs_failed"`
		QueueDepth      int64 `json:"queue_depth"`
		ActiveJobs      int64 `json:"active_jobs"`
	} `json:"service"`
}) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap
}

// TestSweepHappyPath: a two-point sweep streams one well-formed outcome
// per point plus a summary; a repeat request is served from the cache.
func TestSweepHappyPath(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{})
	req := SweepRequest{Points: []PointSpec{
		{Workload: "uniform", Cycles: 300, Seed: 7},
		{Design: "static", Workload: "bidf", Cycles: 300, Seed: 8},
	}}

	resp, body := postSweep(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	recs, err := checkNDJSON(body, len(req.Points), false)
	if err != nil {
		t.Fatalf("first response: %v\n%s", err, body)
	}
	var first []streamLine
	for _, rec := range recs {
		if rec.Type == "outcome" {
			if rec.Cached {
				t.Errorf("point %d cached on a cold cache", rec.Index)
			}
			if rec.Result.Stats.FlitsEjected == 0 {
				t.Errorf("point %d delivered no flits", rec.Index)
			}
			first = append(first, rec)
		}
	}
	if first[0].Fingerprint == first[1].Fingerprint {
		t.Errorf("distinct specs share fingerprint %s", first[0].Fingerprint)
	}

	// Repeat: everything is a hit with identical results.
	resp2, body2 := postSweep(t, ts, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	recs2, err := checkNDJSON(body2, len(req.Points), false)
	if err != nil {
		t.Fatalf("repeat response: %v", err)
	}
	for _, rec := range recs2 {
		if rec.Type != "outcome" {
			continue
		}
		if !rec.Cached || rec.Attempts != 0 {
			t.Errorf("repeat point %d not cached (cached=%v attempts=%d)", rec.Index, rec.Cached, rec.Attempts)
		}
		for _, f := range first {
			if f.Index == rec.Index && !reflect.DeepEqual(f.Result, rec.Result) {
				t.Errorf("repeat point %d result diverges from the computed one", rec.Index)
			}
		}
	}

	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v status %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestSweepBadRequest: malformed specs get a 400 naming every problem at
// once (joined Config.Validate and spec errors), and unknown JSON fields
// are rejected.
func TestSweepBadRequest(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{maxCycles: 1000})

	decodeErr := func(body []byte) string {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body %s not JSON: %v", body, err)
		}
		return e.Error
	}

	resp, body := postSweep(t, ts, SweepRequest{Points: []PointSpec{{
		Design:   "quantum",  // unknown design
		Workload: "webscale", // unknown workload
		Cycles:   9999,       // over the server cap
		Rate:     -1,         // negative
		BufDepth: -3,         // rejected by noc.Config.Validate
	}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	msg := decodeErr(body)
	for _, want := range []string{"quantum", "webscale", "cycles 9999", "rate must be non-negative"} {
		if !strings.Contains(msg, want) {
			t.Errorf("400 error %q does not name %q", msg, want)
		}
	}

	// The config-level error (negative BufDepth) surfaces once the
	// spec-level fields parse.
	resp, body = postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, BufDepth: -3}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	if msg := decodeErr(body); !strings.Contains(msg, "buffer depth") && !strings.Contains(msg, "BufDepth") {
		t.Errorf("400 error %q does not mention the invalid buffer depth", msg)
	}

	// Empty sweeps and unknown fields are 400s too.
	resp, body = postSweep(t, ts, SweepRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep: status %d, want 400", resp.StatusCode)
	}
	if msg := decodeErr(body); !strings.Contains(msg, "no points") {
		t.Errorf("empty-sweep error %q", msg)
	}
	raw := bytes.NewReader([]byte(`{"points":[{"wrokload":"uniform"}]}`))
	resp2, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", raw)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("misspelled field: status %d, want 400", resp2.StatusCode)
	}
}

// TestSweepQueueFull429: with the queue at capacity, a further request
// is rejected with 429 + Retry-After and the queued jobs still complete.
func TestSweepQueueFull429(t *testing.T) {
	srv, ts := e2eServer(t, serverConfig{maxQueue: 2, maxActive: 1})

	gate := make(chan struct{})
	var entered, released sync.Once
	enteredCh := make(chan struct{})
	release := func() { released.Do(func() { close(gate) }) }
	defer release()
	srv.onCompute = func(string) {
		entered.Do(func() { close(enteredCh) })
		<-gate
	}

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			resp, _ := postSweep(t, ts, SweepRequest{Points: []PointSpec{
				{Cycles: 300, Seed: seed},
			}})
			results <- resp.StatusCode
		}(int64(100 + i))
	}

	// Wait until one job is computing (holding the run slot) and both
	// hold queue tokens.
	<-enteredCh
	deadline := time.Now().Add(5 * time.Second)
	for fetchMetrics(t, ts).Service.JobsAdmitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second job never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 999}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if m := fetchMetrics(t, ts); m.Service.JobsRejected != 1 {
		t.Errorf("jobs_rejected %d, want 1", m.Service.JobsRejected)
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("queued job finished with status %d", code)
		}
	}
}

// TestSweepClientDisconnectCancels: dropping the connection mid-sweep
// cancels the simulation through the request context, and the job is
// accounted as failed.
func TestSweepClientDisconnectCancels(t *testing.T) {
	dir := t.TempDir()
	srv, ts := e2eServer(t, serverConfig{dir: dir})

	spec := PointSpec{Cycles: 2_000_000, Seed: 42} // far longer than the test
	body, _ := json.Marshal(SweepRequest{Points: []PointSpec{spec}})

	started := make(chan struct{})
	srv.onCompute = func(string) { close(started) }

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", bytes.NewReader(body))
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()

	<-started
	cancel() // client walks away mid-simulation

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("request did not settle after cancellation")
	}

	// The server notices and fails the job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := fetchMetrics(t, ts)
		if m.Service.JobsFailed == 1 && m.Service.QueueDepth == 0 && m.Service.ActiveJobs == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never drained: metrics %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRealMainFlagValidation: bad flags exit 2 and name the problem.
func TestRealMainFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-queue", "0"}, "-queue must be positive"},
		{[]string{"-active", "-1"}, "-active must be positive"},
		{[]string{"-retries", "-2"}, "-retries must be non-negative"},
		{[]string{"-max-points", "0"}, "-max-points must be positive"},
		{[]string{"-nonsense"}, "flag provided but not defined"},
		{[]string{"-read-header-timeout", "-1s"}, "-read-header-timeout must be non-negative"},
		{[]string{"-read-timeout", "-1s"}, "-read-timeout must be non-negative"},
		{[]string{"-idle-timeout", "-1s"}, "-idle-timeout must be non-negative"},
		{[]string{"-max-deadline", "-1s"}, "-max-deadline must be non-negative"},
		{[]string{"-max-job-cycles", "-1"}, "-max-job-cycles must be non-negative"},
		{[]string{"-interactive-reserve", "32"}, "-interactive-reserve 32 must be smaller than -queue 32"},
		{[]string{"-quarantine-failures", "0"}, "-quarantine-failures must be positive"},
		{[]string{"-quarantine-cooldown", "0s"}, "-quarantine-cooldown must be positive"},
		{[]string{"-gc-max-bytes", "-1"}, "-gc-max-bytes must be non-negative"},
		{[]string{"-gc-max-age", "-1s"}, "-gc-max-age must be non-negative"},
		{[]string{"-gc-interval", "0s"}, "-gc-interval must be positive"},
		{[]string{"-worker-mem", "-1"}, "-worker-mem must be non-negative"},
		{[]string{"-worker-deadline", "-1s"}, "-worker-deadline must be non-negative"},
		{[]string{"-worker-mem", "1048576"}, "-worker-mem requires -isolate"},
		{[]string{"-worker-deadline", "30s"}, "-worker-deadline requires -isolate"},
		{[]string{"-results-keep", "-1s"}, "-results-keep must be non-negative"},
		{[]string{"-results-sync", "-1"}, "-results-sync must be non-negative"},
		// The test rigs' flags are gone from the binary.
		{[]string{"-loadtest"}, "flag provided but not defined: -loadtest"},
		{[]string{"-requests", "1000"}, "flag provided but not defined: -requests"},
		{[]string{"-clients", "64"}, "flag provided but not defined: -clients"},
		{[]string{"-unique", "100"}, "flag provided but not defined: -unique"},
		{[]string{"-lt-cycles", "200"}, "flag provided but not defined: -lt-cycles"},
		{[]string{"-lt-out", "artifacts"}, "flag provided but not defined: -lt-out"},
		{[]string{"-chaos"}, "flag provided but not defined: -chaos"},
		{[]string{"-chaos-seed", "7"}, "flag provided but not defined: -chaos-seed"},
		{[]string{"-resume-storm"}, "flag provided but not defined: -resume-storm"},
		// The deprecated -journal still parses (and is ignored).
		{[]string{"-journal", "state/journal.wal", "-queue", "0"}, "-queue must be positive"},
		// Points are not checkpointed mid-run; the flag does not exist.
		{[]string{"-checkpoint-every", "10000"}, "flag provided but not defined: -checkpoint-every"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := realMain(tc.args, &out, &errb); code != 2 {
			t.Errorf("realMain(%v) = %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("realMain(%v) stderr %q does not contain %q", tc.args, errb.String(), tc.want)
		}
	}
}

// decodeStream splits an NDJSON body into records for content checks.
func decodeStream(t *testing.T, body []byte) []streamLine {
	t.Helper()
	var recs []streamLine
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var rec streamLine
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("unmarshal %s: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestSweepDeadline: a request-level deadline (spec field or header)
// interrupts a long sweep — the stream still terminates with a summary
// naming the deadline, and the slots drain.
func TestSweepDeadline(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{})
	long := PointSpec{Cycles: 2_000_000, Seed: 42}

	// Spec field.
	resp, body := postSweep(t, ts, SweepRequest{Points: []PointSpec{long}, DeadlineMS: 50})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stream already started)", resp.StatusCode)
	}
	var sawSummary bool
	for _, rec := range decodeStream(t, body) {
		switch rec.Type {
		case "outcome":
			if rec.Error == "" {
				t.Errorf("2M-cycle point finished under a 50ms deadline?")
			}
		case "summary":
			sawSummary = true
			if !strings.Contains(rec.Error, "deadline") {
				t.Errorf("summary error %q does not name the deadline", rec.Error)
			}
		}
	}
	if !sawSummary {
		t.Fatal("deadline-expired stream has no terminal summary line")
	}

	// Header fallback.
	blob, _ := json.Marshal(SweepRequest{Points: []PointSpec{{Cycles: 2_000_000, Seed: 43}}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sweep", bytes.NewReader(blob))
	req.Header.Set("X-Sweep-Deadline-Ms", "50")
	hr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !bytes.Contains(hbody, []byte("deadline")) {
		t.Errorf("header deadline: status %d, body %s", hr.StatusCode, hbody)
	}

	// Negative deadlines are a client error.
	resp, _ = postSweep(t, ts, SweepRequest{Points: []PointSpec{long}, DeadlineMS: -5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative deadline: status %d, want 400", resp.StatusCode)
	}

	// No stranded state once the deadline fired.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := fetchMetrics(t, ts)
		if m.Service.QueueDepth == 0 && m.Service.ActiveJobs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slots not drained after deadline expiry: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepMaxDeadlineClamp: the server-side -max-deadline bounds even
// requests that asked for no deadline at all.
func TestSweepMaxDeadlineClamp(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{maxDeadline: 50 * time.Millisecond})
	resp, body := postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 2_000_000, Seed: 44}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("deadline")) {
		t.Errorf("undated request not clamped by -max-deadline:\n%s", body)
	}
}

// TestSweepPriorityShed: batch jobs are shed once only the interactive
// reserve remains, while interactive jobs still get in; /readyz flips
// unready at the same watermark.
func TestSweepPriorityShed(t *testing.T) {
	srv, ts := e2eServer(t, serverConfig{maxQueue: 2, interactiveReserve: 1, maxActive: 1})

	gate := make(chan struct{})
	var entered, released sync.Once
	enteredCh := make(chan struct{})
	release := func() { released.Do(func() { close(gate) }) }
	defer release()
	srv.onCompute = func(string) {
		entered.Do(func() { close(enteredCh) })
		<-gate
	}

	readyz := func() int {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", code)
	}

	// One interactive job occupies the batch headroom (batchMax = 1).
	results := make(chan int, 2)
	go func() {
		resp, _ := postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 201}}})
		results <- resp.StatusCode
	}()
	<-enteredCh

	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("readyz at the batch watermark = %d, want 503", code)
	}

	// Batch is shed with a Retry-After; interactive still gets the
	// reserved slot.
	resp, body := postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 202}}, Priority: "batch"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch at watermark: status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 429 without Retry-After")
	}
	if m := fetchMetrics(t, ts); m.Service.JobsShedBatch != 1 {
		t.Errorf("jobs_shed_batch = %d, want 1", m.Service.JobsShedBatch)
	}

	go func() {
		resp, _ := postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 203}}})
		results <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fetchMetrics(t, ts).Service.JobsAdmitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("interactive job not admitted into the reserve")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Now the queue is truly full: even interactive is rejected.
	resp, _ = postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 204}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("interactive past the full queue: status %d, want 429", resp.StatusCode)
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted job finished with status %d", code)
		}
	}
	if code := readyz(); code != http.StatusOK {
		t.Errorf("drained readyz = %d, want 200", code)
	}

	// Unknown priorities are a client error, and the header works too.
	resp, _ = postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 205}}, Priority: "urgent"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("priority 'urgent': status %d, want 400", resp.StatusCode)
	}
	blob, _ := json.Marshal(SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 206}}})
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/sweep", bytes.NewReader(blob))
	hreq.Header.Set("X-Priority", "batch")
	hresp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("idle batch via X-Priority: status %d, want 200", hresp.StatusCode)
	}
}

// TestSweepCostCeiling: the summed admission-time cost estimate gates
// oversized sweeps with 413 before they claim any slot.
func TestSweepCostCeiling(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{maxJobCycles: 2000})

	// One 300-cycle point estimates ~1.4k cycles: under the ceiling.
	resp, body := postSweep(t, ts, SweepRequest{Points: []PointSpec{{Cycles: 300, Seed: 301}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small sweep: status %d, body %s", resp.StatusCode, body)
	}

	// Two of them overflow it.
	resp, body = postSweep(t, ts, SweepRequest{Points: []PointSpec{
		{Cycles: 300, Seed: 302}, {Cycles: 300, Seed: 303},
	}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep: status %d, want 413; body %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("ceiling")) {
		t.Errorf("413 body does not name the ceiling: %s", body)
	}
	if m := fetchMetrics(t, ts); m.Service.JobsAdmitted != 1 {
		t.Errorf("rejected sweep consumed an admission slot: admitted %d, want 1", m.Service.JobsAdmitted)
	}
}

// TestSweepQuarantine: K panicking jobs trip the config's breaker; the
// next request is answered 422 with the crash-dump evidence and is NOT
// re-simulated; after the cooldown a probe closes the breaker again.
func TestSweepQuarantine(t *testing.T) {
	dir := t.TempDir()
	srv, ts := e2eServer(t, serverConfig{
		dir: dir, retries: 0, quarK: 2, quarCooldown: 200 * time.Millisecond,
	})

	spec := PointSpec{Cycles: 300, Seed: 401}
	pts, err := compileRequest(SweepRequest{Points: []PointSpec{spec}}, srv.mesh, specLimits{}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfgFP, pointFP := pts[0].Meta["config"], pts[0].Fingerprint
	if cfgFP == "" {
		t.Fatal("compiled point carries no config fingerprint")
	}

	var panicOn atomic.Bool
	panicOn.Store(true)
	srv.chaosPanic = func(fp string) bool { return panicOn.Load() && fp == cfgFP }
	var computes atomic.Int64
	srv.onCompute = func(string) { computes.Add(1) }

	req := SweepRequest{Points: []PointSpec{spec}}
	for i := 0; i < 2; i++ {
		resp, body := postSweep(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("panicking job %d: status %d (stream should still open)", i, resp.StatusCode)
		}
		var sawDump bool
		for _, rec := range decodeStream(t, body) {
			if rec.Type == "outcome" {
				if rec.Error == "" {
					t.Fatalf("panicking job %d reported success", i)
				}
				sawDump = rec.CrashDump != ""
			}
		}
		if !sawDump {
			t.Errorf("panicking job %d has no crash-dump reference", i)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, pointFP+".crash.json")); err != nil {
		t.Errorf("crash dump not on disk: %v", err)
	}

	// Tripped: 422 with the evidence, no recompute.
	before := computes.Load()
	resp, body := postSweep(t, ts, req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined config: status %d, want 422; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("422 without Retry-After")
	}
	var envelope struct {
		Error     string `json:"error"`
		Config    string `json:"config"`
		CrashDump string `json:"crash_dump"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("422 body not JSON: %v", err)
	}
	if envelope.Config != cfgFP || envelope.CrashDump == "" {
		t.Errorf("422 evidence incomplete: %+v", envelope)
	}
	if got := computes.Load(); got != before {
		t.Errorf("quarantined request re-simulated: %d -> %d computes", before, got)
	}
	if m := fetchMetrics(t, ts); m.Service.JobsQuarantined != 1 {
		t.Errorf("jobs_quarantined = %d, want 1", m.Service.JobsQuarantined)
	}

	// After the cooldown the config is healthy again (the panic seam is
	// off): the single probe closes the breaker and results flow.
	panicOn.Store(false)
	time.Sleep(250 * time.Millisecond)
	resp, body = postSweep(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: status %d, body %s", resp.StatusCode, body)
	}
	if _, err := checkNDJSON(body, 1, false); err != nil {
		t.Fatalf("probe response: %v\n%s", err, body)
	}
	if srv.quar.quarantined(cfgFP) {
		t.Error("breaker still open after a successful probe")
	}
	resp, body = postSweep(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-recovery request: status %d, body %s", resp.StatusCode, body)
	}
}

// TestReadyzDraining: both health endpoints go 503 when the server
// drains.
func TestReadyzDraining(t *testing.T) {
	srv, ts := e2eServer(t, serverConfig{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + ep)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s before drain: %v %v", ep, err, resp.StatusCode)
		}
		resp.Body.Close()
	}
	srv.draining.Store(true)
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining = %d, want 503", ep, resp.StatusCode)
		}
	}
}

// TestSweepStreamSeqsInOrder: outcome frames reach the stream in seq
// order even when several workers finish points at once. A client takes
// the highest seq it has read as its resume cursor and drops anything at
// or below it as already seen, so a frame overtaking one logged before
// it would lose that point. Cache hits finish near-simultaneously, which
// is when the frames race.
func TestSweepStreamSeqsInOrder(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{workers: 4})
	const points = 16
	for round := 0; round < 300; round++ {
		req := SweepRequest{}
		for i := 0; i < points; i++ {
			req.Points = append(req.Points, PointSpec{Workload: "uniform", Cycles: 60, Seed: int64(i + 1)})
		}
		// One fresh point per round makes each request a new job.
		req.Points[0].Seed = int64(1000 + round)
		resp, body := postSweep(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d, body %s", round, resp.StatusCode, body)
		}
		var last int64
		seen := 0
		for _, line := range decodeStream(t, body) {
			if line.Type != "outcome" || line.Seq == 0 {
				continue
			}
			if line.Seq <= last {
				t.Fatalf("round %d: outcome seq %d streamed after seq %d", round, line.Seq, last)
			}
			last = line.Seq
			seen++
		}
		if seen != points {
			t.Fatalf("round %d: %d logged outcomes streamed, want %d", round, seen, points)
		}
	}
}
