package main

// Crash-only e2e tests: isolated (out-of-process) sweeps produce
// bit-identical results, a daemon "kill -9" between a job's accept and
// its completion is healed by boot replay of its open result log.
// The worker child in all of these is this test binary re-exec'd with
// RFSIMD_TEST_WORKER=1 (see TestMain).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/janitor"
)

// isolateConfig points the worker pool at the test binary's worker gate.
func isolateConfig(cfg serverConfig) serverConfig {
	cfg.isolate = true
	cfg.workerCommand = []string{os.Args[0]}
	cfg.workerEnv = []string{"RFSIMD_TEST_WORKER=1"}
	return cfg
}

// resultBlobs decodes a sweep stream into canonical result bytes per
// point index, failing the test on any failed outcome.
func resultBlobs(t *testing.T, body []byte) map[int][]byte {
	t.Helper()
	out := map[int][]byte{}
	for _, rec := range decodeStream(t, body) {
		if rec.Type != "outcome" {
			continue
		}
		if rec.Error != "" {
			t.Fatalf("point %d failed: %s", rec.Index, rec.Error)
		}
		blob, err := experiments.MarshalResult(*rec.Result)
		if err != nil {
			t.Fatalf("marshal result %d: %v", rec.Index, err)
		}
		out[rec.Index] = blob
	}
	return out
}

// TestSweepIsolatedBitIdentical: the same sweep run in-process and
// through worker processes must produce byte-for-byte identical results
// — process isolation must not perturb the simulation, or the
// content-addressed cache would silently mix divergent answers.
func TestSweepIsolatedBitIdentical(t *testing.T) {
	req := SweepRequest{Points: []PointSpec{
		{Workload: "uniform", Cycles: 300, Seed: 61},
		{Design: "wire-static", Workload: "bidf", Cycles: 300, Seed: 62},
	}}

	_, tsRef := e2eServer(t, serverConfig{})
	refResp, refBody := postSweep(t, tsRef, req)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep status %d: %s", refResp.StatusCode, refBody)
	}
	ref := resultBlobs(t, refBody)

	srvIso, tsIso := e2eServer(t, isolateConfig(serverConfig{}))
	resp, body := postSweep(t, tsIso, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("isolated sweep status %d: %s", resp.StatusCode, body)
	}
	iso := resultBlobs(t, body)

	for i, want := range ref {
		if !bytes.Equal(iso[i], want) {
			t.Errorf("point %d: isolated result diverges from in-process\nisolated:   %s\nin-process: %s", i, iso[i], want)
		}
	}
	st := srvIso.pool.Stats()
	if st.JobsDispatched < int64(len(req.Points)) {
		t.Errorf("pool dispatched %d jobs, want >= %d — the sweep did not actually cross the process boundary", st.JobsDispatched, len(req.Points))
	}
	if st.Crashed != 0 {
		t.Errorf("pool stats %+v: clean sweep crashed workers", st)
	}
}

// crashMidJob runs req on a server over dir whose drain context is
// cancelled the instant the simulation starts — the same order of
// events kill -9 produces (log header fsync'd, nothing settled) — and
// discards its in-memory state. It returns the job's result-log path.
func crashMidJob(t *testing.T, dir string, req SweepRequest) string {
	t.Helper()
	drainCtx, drainCancel := context.WithCancel(context.Background())
	defer drainCancel()
	srv, err := newServer(drainCtx, serverConfig{dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.onCompute = func(string) { drainCancel() }
	ts := httptest.NewServer(srv.handler())
	resp, body := postSweep(t, ts, req)
	ts.Close()
	srv.close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interrupted sweep status %d: %s", resp.StatusCode, body)
	}
	return onlyResultLog(t, dir)
}

// onlyResultLog returns the path of the single result log in dir.
func onlyResultLog(t *testing.T, dir string) string {
	t.Helper()
	logs, _ := filepath.Glob(filepath.Join(dir, "*"+resultLogSuffix))
	if len(logs) != 1 {
		t.Fatalf("%d result logs in %s, want 1", len(logs), dir)
	}
	return logs[0]
}

// TestResultLogCrashRecovery is the durability property test: a daemon
// killed between a job's fsync'd log header and its completion must,
// on restart over the same state directory, replay the job to
// completion and then serve the re-submitted request from the cache
// with a result bit-identical to an uninterrupted run.
func TestResultLogCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	req := SweepRequest{Points: []PointSpec{{Workload: "uniform", Cycles: 20_000, Seed: 77}}}

	// Reference: an uninterrupted run on an unrelated server.
	_, tsRef := e2eServer(t, serverConfig{})
	refResp, refBody := postSweep(t, tsRef, req)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep status %d: %s", refResp.StatusCode, refBody)
	}
	ref := resultBlobs(t, refBody)

	path := crashMidJob(t, dir, req)
	if d, err := loadResultLog(path); err != nil || !d.open() {
		t.Fatalf("log before restart: open=%v err=%v, want an open log", d.open(), err)
	}

	// Restart: server C over the same directory recovers the open log
	// and replays it to completion.
	srvC, tsC := e2eServer(t, serverConfig{dir: dir})
	if n := len(srvC.replay); n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	srvC.replayRecovered(context.Background())
	if got := srvC.jobs.heldEntries(); got != 0 {
		t.Fatalf("%d jobs still open after replay", got)
	}
	if d, err := loadResultLog(path); err != nil || !d.done {
		t.Fatalf("log after replay: sealed=%v err=%v, want sealed", d.done, err)
	}

	// The re-submitted request is a cache hit with the reference bytes.
	resp, body := postSweep(t, tsC, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery sweep status %d: %s", resp.StatusCode, body)
	}
	for _, rec := range decodeStream(t, body) {
		if rec.Type == "outcome" && !rec.Cached {
			t.Errorf("post-recovery point %d not served from the replayed cache", rec.Index)
		}
	}
	got := resultBlobs(t, body)
	for i, want := range ref {
		if !bytes.Equal(got[i], want) {
			t.Errorf("point %d: recovered result diverges from uninterrupted run\nrecovered: %s\nreference: %s", i, got[i], want)
		}
	}
}

// TestResultLogReplaySkipsSettledWork: only open logs replay. A job
// that finished cleanly (sealed), one whose client went away, and one
// whose points failed (both settled with an 'X') must NOT replay.
func TestResultLogReplaySkipsSettledWork(t *testing.T) {
	req := SweepRequest{Points: []PointSpec{{Workload: "uniform", Cycles: 300, Seed: 78}}}
	cases := []struct {
		name string
		run  func(t *testing.T, srv *server, ts *httptest.Server)
	}{
		{"finished", func(t *testing.T, _ *server, ts *httptest.Server) {
			if resp, body := postSweep(t, ts, req); resp.StatusCode != http.StatusOK {
				t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
			}
		}},
		{"client-cancelled", func(t *testing.T, srv *server, ts *httptest.Server) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			srv.onCompute = func(string) { cancel() }
			body, _ := json.Marshal(SweepRequest{Points: []PointSpec{{Workload: "uniform", Cycles: 60_000, Seed: 79}}})
			hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
			if resp, err := ts.Client().Do(hreq); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}},
		{"points-failed", func(t *testing.T, srv *server, ts *httptest.Server) {
			srv.chaosPanic = func(string) bool { return true }
			resp, body := postSweep(t, ts, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
			}
			if !bytes.Contains(body, []byte(`"failed":1`)) {
				t.Fatalf("sweep did not fail its point:\n%s", body)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srvA, err := newServer(context.Background(), serverConfig{dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			tsA := httptest.NewServer(srvA.handler())
			tc.run(t, srvA, tsA)
			tsA.Close() // waits for the handler to settle the job
			srvA.close()
			if d, err := loadResultLog(onlyResultLog(t, dir)); err != nil || d.open() {
				t.Fatalf("log after %s: open=%v err=%v, want settled or sealed", tc.name, d.open(), err)
			}

			srvB, _ := e2eServer(t, serverConfig{dir: dir})
			if n := len(srvB.replay); n != 0 {
				t.Fatalf("settled job replayed: %d recovered jobs, want 0", n)
			}
		})
	}
}

// TestReplayHoldPinsOpenLog: the janitor must not collect an open log
// before boot replay settles it, however small -gc-max-age is; once
// replayed (and past -results-keep) the log is ordinary garbage.
func TestReplayHoldPinsOpenLog(t *testing.T) {
	dir := t.TempDir()
	req := SweepRequest{Points: []PointSpec{{Workload: "uniform", Cycles: 5_000, Seed: 80}}}
	path := crashMidJob(t, dir, req)

	srv, _ := e2eServer(t, serverConfig{dir: dir, resultsKeep: time.Nanosecond})
	jan, err := janitor.New(janitor.Config{Dir: dir, MaxAge: time.Nanosecond, Pinned: srv.artifactPinned})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	jan.Sweep()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("janitor collected the open log before replay: %v", err)
	}
	srv.replayRecovered(context.Background())
	if d, err := loadResultLog(path); err != nil || !d.done {
		t.Fatalf("log after replay: sealed=%v err=%v, want sealed", d.done, err)
	}
	time.Sleep(time.Millisecond)
	jan.Sweep()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("replayed log outlived -results-keep and -gc-max-age: %v", err)
	}
}

// breakerFails reads the failure count of cfgFP's breaker.
func breakerFails(srv *server, cfgFP string) int {
	srv.quar.mu.Lock()
	defer srv.quar.mu.Unlock()
	if e, ok := srv.quar.entries[cfgFP]; ok {
		return e.fails
	}
	return 0
}

// TestReplayRunsChaosSeam: boot replay runs a point through the same
// wrapper a live POST does, so a config the chaos seam panics fails in
// replay too: the replay writes a crash dump, leaves the job unsealed
// and settled (not open, so the next boot leaves it alone), and counts
// one failure on the config's breaker, exactly as a POST of the same
// request does.
func TestReplayRunsChaosSeam(t *testing.T) {
	dir := t.TempDir()
	req := SweepRequest{Points: []PointSpec{{Workload: "uniform", Cycles: 5_000, Seed: 81}}}
	path := crashMidJob(t, dir, req)

	srv, _ := e2eServer(t, serverConfig{dir: dir})
	pt := compileOne(t, srv, req)
	cfgFP := pt.Meta["config"]
	if cfgFP == "" {
		t.Fatal("the point has no config fingerprint")
	}
	srv.chaosPanic = func(fp string) bool { return fp == cfgFP }
	srv.replayRecovered(context.Background())

	if _, err := os.Stat(filepath.Join(dir, pt.ID+".crash.json")); err != nil {
		t.Errorf("replay wrote no crash dump: %v", err)
	}
	d, err := loadResultLog(path)
	if err != nil || d.done || !d.settled {
		t.Fatalf("log after replay: sealed=%v settled=%v err=%v, want settled and unsealed", d.done, d.settled, err)
	}
	if got := srv.jobs.heldEntries(); got != 0 {
		t.Errorf("%d jobs still held after replay", got)
	}
	if got := breakerFails(srv, cfgFP); got != 1 {
		t.Errorf("replay counted %d failures on the breaker, want 1", got)
	}

	live, ts := e2eServer(t, serverConfig{dir: t.TempDir()})
	live.chaosPanic = srv.chaosPanic
	if resp, body := postSweep(t, ts, req); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"failed":1`)) {
		t.Fatalf("live POST: status %d, want its point failed:\n%s", resp.StatusCode, body)
	}
	if got := breakerFails(live, cfgFP); got != 1 {
		t.Errorf("live POST counted %d failures on the breaker, want 1", got)
	}
}
