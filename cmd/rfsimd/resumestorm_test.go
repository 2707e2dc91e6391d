package main

// The resume-storm rig: the end-to-end proof of exactly-once delivery.
// A fleet of rfclient.Client instances drives keyed sweeps at an
// in-process daemon through a netchaos proxy that cuts, truncates and
// stalls their streams at random byte offsets. Midway through the
// first wave of fresh computes the daemon is killed the way SIGKILL
// kills it (drain-cancel with no settle) and restarted over the same
// state directory, with the proxy retargeted to the new listener the
// way a crashed daemon comes back behind a stable address.
//
// Every client run must converge with a clean summary, deliver each
// point exactly once and byte-identical to an uninterrupted reference
// run; the faults must really fire (proxy cuts > 0, cursor resumes
// > 0); the restarted daemon must answer every job's cursor GET from
// its durable result log and every boot-replayed spec's re-POST from
// the cache the replay rebuilt, both with zero recomputation; and the
// shared teardown checks must hold.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netchaos"
	"repro/internal/rfclient"
)

// stormRun is one client Run's settled record.
type stormRun struct {
	unique      int
	jobID       string
	summary     rfclient.Summary
	stats       rfclient.Stats
	outcomes    map[int]rfclient.Outcome
	redelivered int
	err         error
}

// TestResumeStorm: 48 client runs from 8 goroutines over 6 keyed jobs
// of 3 points each, proxy and client jitter seeded with 7. Multi-point
// jobs widen the cut-between-durable-frames window, so some cuts land
// after a client has banked a cursor and the resume path cannot go
// unexercised by timing luck.
func TestResumeStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("resume storm")
	}
	const requests, clients, unique, points, seed = 48, 8, 6, 3, 7
	const quota = 8 << 20
	noGoroutineLeak(t)
	cfg := serverConfig{
		maxQueue: 16, maxActive: 4, interactiveReserve: 4,
		retries: 1, checkpointEvery: 500, cacheEntries: 4096, dir: t.TempDir(),
	}
	reqs := sweeps(unique, points, 300)
	bodies := make([][]byte, unique)
	ref := make([]map[int][]byte, unique)
	for u, req := range reqs {
		bodies[u], _ = json.Marshal(req)
		ref[u] = refOutcomes(t, req)
	}

	// Daemon A, rigged to die from the compute seam midway through the
	// first wave of fresh points, so producers die mid-simulation with
	// their result logs still open.
	srvA, tsA := e2eServer(t, cfg)
	drainA, kill := context.WithCancel(context.Background())
	defer kill()
	srvA.drainCtx = drainA
	var computesA atomic.Int64
	killed := make(chan struct{})
	srvA.onCompute = func(string) {
		if computesA.Add(1) == unique*points/2 {
			close(killed)
		}
	}
	startJanitor(t, drainA, srvA, quota)

	// Cut offsets are drawn from [0, 2*CutAfter) per connection and
	// accumulate across keep-alive reuse, so with a span a few outcome
	// lines wide the cuts land everywhere: mid-line (no cursor banked,
	// the client re-POSTs) and between durable frames (cursor banked,
	// the client resumes with a GET).
	proxy, err := netchaos.New(netchaos.Config{
		Target:    strings.TrimPrefix(tsA.URL, "http://"),
		Seed:      seed,
		Latency:   time.Millisecond,
		CutProb:   0.35,
		CutAfter:  4096,
		TruncProb: 0.5,
		StallProb: 0.1,
		Stall:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	// Every client dials the proxy, never the daemon.
	stormHTTP := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, IdleConnTimeout: 2 * time.Second}}
	t.Cleanup(stormHTTP.CloseIdleConnections)

	runs := make([]stormRun, requests)
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		fanOut(t, requests, clients, func(i int) {
			u := i % unique
			cl := rfclient.New(rfclient.Config{
				BaseURL:        "http://" + proxy.Addr(),
				HTTP:           stormHTTP,
				IdempotencyKey: fmt.Sprintf("resume-storm-%03d", u),
				MaxAttempts:    30,
				BaseBackoff:    10 * time.Millisecond,
				MaxBackoff:     250 * time.Millisecond,
				StallTimeout:   10 * time.Second,
				Seed:           seed + int64(i),
			})
			col := rfclient.NewCollector()
			sum, st, err := cl.Run(context.Background(), bodies[u], col.Add)
			runs[i] = stormRun{unique: u, jobID: st.JobID, summary: sum, stats: st,
				outcomes: col.Outcomes(), redelivered: col.Duplicates(), err: err}
		})
	}()

	// The kill: drain-cancel first, which aborts in-flight computes with
	// their logs left open, then tear down the listener and the process
	// state. The proxy keeps listening; its clients see resets and
	// refused dials until daemon B comes up over the same directory.
	select {
	case <-killed:
	case <-stormDone:
		t.Fatal("the storm finished before the kill")
	}
	queuePeakA := srvA.metrics.Snapshot().QueuePeak
	kill()
	tsA.Close()
	srvA.close()

	srvB, tsB := e2eServer(t, cfg)
	var replayKeys []string
	for _, ent := range srvB.replay {
		replayKeys = append(replayKeys, ent.id)
	}
	var computes atomic.Int64
	srvB.onCompute = func(string) { computes.Add(1) }
	startJanitor(t, context.Background(), srvB, quota)
	proxy.SetTarget(strings.TrimPrefix(tsB.URL, "http://"))
	replayDone := make(chan struct{})
	go func() {
		defer close(replayDone)
		srvB.replayRecovered(context.Background())
	}()
	<-stormDone
	select {
	case <-replayDone:
	case <-time.After(60 * time.Second):
		t.Fatal("boot replay did not finish after the storm")
	}

	// Per-run verdicts: convergence, exactly-once, byte-identity.
	var resumes int
	for i, r := range runs {
		resumes += r.stats.Resumes
		if r.err != nil {
			t.Errorf("run %d (spec %d): %v", i, r.unique, r.err)
			continue
		}
		if r.summary.Failed != 0 || r.summary.Error != "" {
			t.Errorf("run %d (spec %d): dirty summary: failed=%d error=%q", i, r.unique, r.summary.Failed, r.summary.Error)
		}
		if r.redelivered != 0 {
			t.Errorf("run %d (spec %d): %d outcomes delivered more than once", i, r.unique, r.redelivered)
		}
		if len(r.outcomes) != points {
			t.Errorf("run %d (spec %d): %d outcomes delivered, want %d", i, r.unique, len(r.outcomes), points)
		}
		for idx, blob := range ref[r.unique] {
			if got, ok := r.outcomes[idx]; !ok || string(got.Result) != string(blob) {
				t.Errorf("run %d (spec %d): point %d missing or diverging from the uninterrupted reference", i, r.unique, idx)
			}
		}
	}

	// The faults must have actually bitten, or the run proves nothing.
	if proxy.Stats().Cuts == 0 {
		t.Error("the proxy never cut a stream — the storm was not a storm")
	}
	if resumes == 0 {
		t.Error("no client ever issued a cursor GET — the resume path went unexercised")
	}

	// Daemon B, direct (no proxy), once it has finished everything the
	// storm and the replay left in flight: the durable logs answer every
	// job's cursor GET, byte-identical, with zero recomputation.
	checkDrained(t, srvB)
	jobIDs := map[int]string{}
	uniqueOf := map[string]int{}
	for _, r := range runs {
		if r.jobID != "" {
			jobIDs[r.unique] = r.jobID
			uniqueOf[r.jobID] = r.unique
		}
	}
	c0 := computes.Load()
	for u, id := range jobIDs {
		resp, err := tsB.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=1", tsB.URL, id))
		if err != nil {
			t.Errorf("job %d (%s): GET: %v", u, id, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("job %d (%s): GET status %d: %s", u, id, resp.StatusCode, body)
		} else if err := checkDurableStream(body, ref[u]); err != nil {
			t.Errorf("job %d (%s): durable replay: %v\n%s", u, id, err, body)
		}
	}
	if c1 := computes.Load(); c1 != c0 {
		t.Errorf("GET /v1/jobs/{id}/results recomputed %d points — reads must come from the durable log", c1-c0)
	}

	// The replay recomputed its jobs into the cache, so an unkeyed
	// re-POST of each one must be all cache hits. The kill can land
	// when no log is open (every in-flight run attached to a done job);
	// TestResumeExactlyOnceAcrossRestart pins the replay path
	// deterministically.
	for _, key := range replayKeys {
		u, ok := uniqueOf[key]
		if !ok {
			continue // no surviving client record names this job
		}
		c := computes.Load()
		status, body := fire(t, tsB.Client(), tsB.URL, reqs[u])
		recs, err := checkNDJSON(body, points, false)
		if status != http.StatusOK || err != nil {
			t.Errorf("replayed spec %d: re-POST status %d (%v): %s", u, status, err, body)
			continue
		}
		for _, rec := range recs {
			if rec.Type == "outcome" && !rec.Cached {
				t.Errorf("replayed spec %d: point %d not served from the replayed cache", u, rec.Index)
			}
		}
		if err := diffResults(recs, ref[u]); err != nil {
			t.Errorf("replayed spec %d: %v", u, err)
		}
		if got := computes.Load(); got != c {
			t.Errorf("replayed spec %d: re-POST recomputed %d points", u, got-c)
		}
	}
	t.Logf("%d result logs were open at the kill", len(replayKeys))

	checkDrained(t, srvB)
	if queuePeakA > int64(srvA.cfg.maxQueue) {
		t.Errorf("queue peak %d on daemon A overshot the admission bound %d", queuePeakA, srvA.cfg.maxQueue)
	}
	if srvB.metrics.Snapshot().JobsAttached == 0 {
		t.Error("no keyed POST ever attached to an existing job")
	}
}
