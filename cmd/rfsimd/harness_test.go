package main

// The helpers every service test shares: one in-process server start,
// one janitor, one bounded POST, one strict NDJSON checker, one spec
// builder and one teardown check. The load soak lives here too; the
// chaos and resume-storm rigs build on the same helpers.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/janitor"
)

// headerTimeout is the test servers' read-header budget: the slow-loris
// guard the chaos rig must see hang up.
const headerTimeout = 500 * time.Millisecond

// streamLine is the decode-side union of every NDJSON record type.
type streamLine struct {
	Type        string              `json:"type"`
	Seq         int64               `json:"seq"`
	Index       int                 `json:"index"`
	ID          string              `json:"id"`
	Fingerprint string              `json:"fingerprint"`
	Cached      bool                `json:"cached"`
	Attempts    int                 `json:"attempts"`
	Error       string              `json:"error"`
	CrashDump   string              `json:"crash_dump"`
	Result      *experiments.Result `json:"result"`
	Points      int                 `json:"points"`
	Failed      int                 `json:"failed"`
}

// e2eServer starts a server for cfg behind an httptest listener with
// the daemon's HTTP timeouts, and closes both at test cleanup.
func e2eServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(context.Background(), cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(srv.close)
	ts := httptest.NewUnstartedServer(srv.handler())
	ts.Config.ReadHeaderTimeout = headerTimeout
	ts.Config.ReadTimeout = 30 * time.Second
	ts.Config.IdleTimeout = 30 * time.Second
	ts.Start()
	t.Cleanup(ts.Close)
	tr := ts.Client().Transport.(*http.Transport)
	tr.MaxIdleConnsPerHost = 64
	// Drop idle connections client-side before the server's idle
	// timeout can: a hang-up racing a reuse surfaces as a transport
	// error the transport cannot always retry.
	tr.IdleConnTimeout = ts.Config.IdleTimeout / 2
	return srv, ts
}

// startJanitor runs a disk-quota janitor over srv's directory until ctx
// ends or the test cleans up, sweeping every 100ms so a short run sees
// it reclaim. At cleanup, a final sweep must leave the directory under
// quota.
func startJanitor(t *testing.T, ctx context.Context, srv *server, quota int64) {
	t.Helper()
	jan, err := janitor.New(janitor.Config{
		Dir:      srv.cfg.dir,
		MaxBytes: quota,
		Interval: 100 * time.Millisecond,
		Pinned:   srv.artifactPinned,
	})
	if err != nil {
		t.Fatalf("janitor: %v", err)
	}
	srv.jan = jan
	ctx, cancel := context.WithCancel(ctx)
	go jan.Run(ctx)
	t.Cleanup(func() {
		cancel()
		if rep := jan.Sweep(); rep.LiveBytes > quota {
			t.Errorf("disk quota violated after final sweep: %d live bytes > %d quota", rep.LiveBytes, quota)
		}
	})
}

// fire POSTs one sweep and returns the final status and body, absorbing
// 429s with backoff. It is bounded: a 429 without Retry-After, 500
// rejections, or a fourth transport error fails the test and returns
// status 0. Transport errors are retried because the server may tear
// down a pooled keep-alive connection at the instant it is reused.
func fire(t *testing.T, client *http.Client, url string, req SweepRequest) (int, []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		t.Errorf("marshal request: %v", err)
		return 0, nil
	}
	backoff := 2 * time.Millisecond
	sleep := func() {
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
	transportErrs := 0
	for retries := 0; retries < 500; retries++ {
		resp, err := client.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			if transportErrs++; transportErrs <= 3 {
				sleep()
				continue
			}
			t.Errorf("POST %s: %v", body, err)
			return 0, nil
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("POST %s: reading response: %v", body, err)
			return 0, nil
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp.StatusCode, blob
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s: 429 without Retry-After", body)
			return 0, blob
		}
		sleep()
	}
	t.Errorf("POST %s: never admitted after 500 retries", body)
	return 0, nil
}

// fanOut calls fn(0) … fn(n-1) from `clients` goroutines and waits.
// It hands out no more work once the test has failed, so a daemon that
// stops admitting fails the test within one retry budget of fire.
func fanOut(t *testing.T, n, clients int, fn func(i int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if !t.Failed() {
					fn(i)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// sweeps builds `unique` requests of `points` points each, pairwise
// distinct by seed (so by fingerprint), with design and workload cycling
// through a small grid for shape diversity.
func sweeps(unique, points int, cycles int64) []SweepRequest {
	designs := []string{"baseline", "static", "wire-static"}
	workloads := []string{"uniform", "bidf", "2hotspot"}
	reqs := make([]SweepRequest, unique)
	for u := range reqs {
		for k := 0; k < points; k++ {
			reqs[u].Points = append(reqs[u].Points, PointSpec{
				Design:   designs[(u+k)%len(designs)],
				Workload: workloads[(u/len(designs)+k)%len(workloads)],
				Seed:     int64(1000 + u*points + k),
				Cycles:   cycles,
			})
		}
	}
	return reqs
}

// countComputes arms srv's exactly-once probe: every actual simulation
// reports its fingerprint, while cache hits and single-flight joins
// never do. The returned function reads a copy of the counts.
func countComputes(srv *server) func() map[string]int {
	var mu sync.Mutex
	computes := map[string]int{}
	srv.onCompute = func(fp string) {
		mu.Lock()
		computes[fp]++
		mu.Unlock()
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(computes))
		for fp, n := range computes {
			out[fp] = n
		}
		return out
	}
}

// checkNDJSON validates one response stream strictly and returns its
// records: every line parses, an optional job preamble comes first and
// announces the point count, every point gets exactly one outcome with
// a fingerprint, and exactly one summary closes the stream with the
// stream's failure count. With allowFailures (honest fault-induced
// failures are expected), failed outcomes and a summary error pass;
// otherwise every outcome must carry a result.
func checkNDJSON(body []byte, wantPoints int, allowFailures bool) ([]streamLine, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var recs []streamLine
	seenIdx := map[int]bool{}
	summaries, failed := 0, 0
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			return nil, fmt.Errorf("line %d: empty NDJSON line", lineNo)
		}
		var rec streamLine
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("line %d: malformed NDJSON: %v", lineNo, err)
		}
		recs = append(recs, rec)
		switch rec.Type {
		case "job":
			if lineNo != 1 {
				return nil, fmt.Errorf("line %d: job line not the stream preamble", lineNo)
			}
			if rec.ID == "" {
				return nil, fmt.Errorf("line %d: job line without an id", lineNo)
			}
			if rec.Points != wantPoints {
				return nil, fmt.Errorf("line %d: job line announces %d points, want %d", lineNo, rec.Points, wantPoints)
			}
		case "outcome":
			if summaries > 0 {
				return nil, fmt.Errorf("line %d: outcome after summary", lineNo)
			}
			if rec.Error != "" {
				if !allowFailures {
					return nil, fmt.Errorf("line %d: point %d failed: %s", lineNo, rec.Index, rec.Error)
				}
				failed++
			} else if rec.Result == nil {
				return nil, fmt.Errorf("line %d: outcome without result", lineNo)
			}
			if rec.Fingerprint == "" {
				return nil, fmt.Errorf("line %d: outcome without fingerprint", lineNo)
			}
			if rec.Index < 0 || rec.Index >= wantPoints {
				return nil, fmt.Errorf("line %d: outcome index %d outside [0,%d)", lineNo, rec.Index, wantPoints)
			}
			if seenIdx[rec.Index] {
				return nil, fmt.Errorf("line %d: duplicate outcome for index %d", lineNo, rec.Index)
			}
			seenIdx[rec.Index] = true
		case "summary":
			summaries++
			if rec.Error != "" && !allowFailures {
				return nil, fmt.Errorf("line %d: summary reports: %s", lineNo, rec.Error)
			}
			if rec.Failed != failed {
				return nil, fmt.Errorf("line %d: summary reports %d failed points, stream shows %d", lineNo, rec.Failed, failed)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", lineNo, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scanning response: %v", err)
	}
	if summaries != 1 {
		return nil, fmt.Errorf("%d summary lines, want exactly 1 (no terminal summary = a stranded stream)", summaries)
	}
	if len(seenIdx) != wantPoints {
		return nil, fmt.Errorf("%d outcome lines, want %d", len(seenIdx), wantPoints)
	}
	return recs, nil
}

// diffResults reports the first outcome in recs whose result bytes
// differ from the reference.
func diffResults(recs []streamLine, want map[int][]byte) error {
	for _, rec := range recs {
		if rec.Type != "outcome" {
			continue
		}
		blob, err := experiments.MarshalResult(*rec.Result)
		if err != nil {
			return err
		}
		if !bytes.Equal(blob, want[rec.Index]) {
			return fmt.Errorf("point %d: result bytes diverge from the reference", rec.Index)
		}
	}
	return nil
}

// checkDurableStream validates a cursor GET of a sealed job: a strict
// stream with the reference bytes, whose outcomes and summary all carry
// a durable seq.
func checkDurableStream(body []byte, want map[int][]byte) error {
	recs, err := checkNDJSON(body, len(want), false)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Type != "job" && rec.Seq <= 0 {
			return fmt.Errorf("%s line (index %d) without a durable seq", rec.Type, rec.Index)
		}
	}
	return diffResults(recs, want)
}

// noGoroutineLeak fails the test unless, once every cleanup registered
// after it has run (listeners, servers, janitors, worker pools), the
// goroutine count returns to within 8 of its count now.
func noGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(15 * time.Second)
		for runtime.NumGoroutine() > baseline+8 {
			if time.Now().After(deadline) {
				var buf bytes.Buffer
				pprof.Lookup("goroutine").WriteTo(&buf, 1)
				t.Errorf("goroutine leak: %d at start, %d after teardown\n%s", baseline, runtime.NumGoroutine(), &buf)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// checkDrained waits for srv to settle every job, then fails the test
// on anything stranded: a queued or running job, an admission slot, a
// janitor pin, a result-log entry with a live producer or reader, a
// recovered log awaiting replay. The queue peak must be within the
// admission bound and the job ledger must balance.
func checkDrained(t *testing.T, srv *server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := srv.metrics.Snapshot()
		stranded := [...]int{int(snap.QueueDepth), int(snap.ActiveJobs), srv.adm.depthNow(),
			srv.pinCount(), srv.jobs.liveEntries(), srv.jobs.heldEntries()}
		if stranded == [len(stranded)]int{} {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("stranded after drain: [queued, active, admission slots, pins, live logs, unreplayed logs] = %v", stranded)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	snap := srv.metrics.Snapshot()
	if snap.QueuePeak > int64(srv.cfg.maxQueue) {
		t.Errorf("queue peak %d overshot the admission bound %d", snap.QueuePeak, srv.cfg.maxQueue)
	}
	if snap.JobsAdmitted != snap.JobsCompleted+snap.JobsFailed {
		t.Errorf("job ledger does not balance: %d admitted != %d completed + %d failed",
			snap.JobsAdmitted, snap.JobsCompleted, snap.JobsFailed)
	}
}

// TestLoadSoak: 1000 requests from 64 clients against a 32-slot queue,
// ~90% colliding on 100 unique single-point specs, with the invariant
// checker armed. Every unique spec must be simulated exactly once,
// every response must be strict NDJSON with no failed point, and
// nothing may be stranded or leaked.
func TestLoadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("load soak")
	}
	const requests, clients, unique = 1000, 64, 100
	noGoroutineLeak(t)
	srv, ts := e2eServer(t, serverConfig{maxQueue: 32, maxActive: 4, cacheEntries: 4096, check: true})
	computes := countComputes(srv)
	reqs := sweeps(unique, 1, 200)

	var mu sync.Mutex
	seen := map[string]bool{} // fingerprints across all outcomes
	fanOut(t, requests, clients, func(i int) {
		status, body := fire(t, ts.Client(), ts.URL, reqs[i%unique])
		if status != http.StatusOK {
			t.Errorf("request %d: final status %d: %s", i, status, body)
			return
		}
		recs, err := checkNDJSON(body, 1, false)
		if err != nil {
			t.Errorf("request %d: %v\n%s", i, err, body)
			return
		}
		mu.Lock()
		for _, rec := range recs {
			if rec.Type == "outcome" {
				seen[rec.Fingerprint] = true
			}
		}
		mu.Unlock()
	})

	counts := computes()
	for fp, n := range counts {
		if n != 1 {
			t.Errorf("fingerprint %s simulated %d times, want exactly 1", fp, n)
		}
	}
	if len(counts) != unique {
		t.Errorf("%d distinct fingerprints simulated, want %d", len(counts), unique)
	}
	if len(seen) != unique {
		t.Errorf("outcomes cover %d distinct fingerprints, want %d", len(seen), unique)
	}
	if n := srv.metrics.Snapshot().PointsFailed; n != 0 {
		t.Errorf("%d points failed", n)
	}
	checkDrained(t, srv)
}
