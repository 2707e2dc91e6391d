package main

// The resume-storm harness behind `rfsimd -loadtest -resume-storm`:
// the end-to-end proof of the PR-9 exactly-once delivery contract. A
// fleet of rfclient.Client instances drives keyed sweeps at an
// in-process daemon through a netchaos proxy that cuts, truncates and
// stalls their streams at random byte offsets — and a third of the way
// through the storm the daemon itself is killed the way SIGKILL kills
// it (drain-cancel with no settle) and restarted over the same state
// directory, with the proxy retargeted to the new listener
// the way a crashed daemon comes back behind a stable address.
//
// Invariants asserted at the end (exit 1 on any violation):
//
//   - every client run converges despite the faults and the restart,
//     with a clean terminal summary;
//   - delivery is exactly-once: no client hands an outcome to its
//     consumer twice (the collector counts, the cursor+index dedup
//     suppresses), and every point arrives;
//   - delivered result bytes are identical to an uninterrupted
//     reference run of the same specs on a pristine server;
//   - the faults really fired (proxy cuts > 0) and the resume path was
//     really exercised (cursor GETs > 0, keyed attaches > 0);
//   - after the storm no recovered log is still open, and no queue
//     slot, admission slot, janitor pin or result-log entry is
//     stranded; the PR-7 queue bound held throughout;
//   - GET /v1/jobs/{id}/results on the restarted daemon serves
//     entirely from the durable result logs — zero recomputation —
//     and re-POSTing a boot-replayed spec is answered from the
//     cache the replay rebuilt, "cached":true on every point;
//   - no goroutine leaks, and the artifact directory ends under the
//     janitor's byte quota.
//
// Artifacts (resume_report.json) land under -lt-out for CI upload.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/janitor"
	"repro/internal/netchaos"
	"repro/internal/rfclient"
)

// stormPoints is the sweep width of every storm spec. Multi-point jobs
// make the cut-between-durable-frames window wide, so a deterministic
// fraction of connection cuts land after the client has banked a
// cursor — the resume path cannot go unexercised by timing luck.
const stormPoints = 3

// stormRun is one client Run's settled record.
type stormRun struct {
	item, unique int
	jobID        string
	summary      rfclient.Summary
	stats        rfclient.Stats
	outcomes     map[int]rfclient.Outcome
	redelivered  int
	err          error
}

// stormSpecs builds `unique` keyed sweep bodies of stormPoints points
// each, pairwise distinct by seed.
func stormSpecs(unique int, cycles int64) []ltSpec {
	designs := []string{"baseline", "static", "wire-static"}
	workloads := []string{"uniform", "bidf", "2hotspot"}
	specs := make([]ltSpec, unique)
	for u := 0; u < unique; u++ {
		req := SweepRequest{Points: make([]PointSpec, stormPoints)}
		for k := range req.Points {
			req.Points[k] = PointSpec{
				Design:   designs[(u+k)%len(designs)],
				Workload: workloads[(u/len(designs)+k)%len(workloads)],
				Seed:     int64(9000 + u*stormPoints + k),
				Cycles:   cycles,
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // specs are static; this cannot fail
		}
		specs[u] = ltSpec{unique: u, body: body}
	}
	return specs
}

// stormKey names spec u's job across every client and both daemon
// incarnations.
func stormKey(u int) string { return fmt.Sprintf("resume-storm-%03d", u) }

func runResumeStorm(f *daemonFlags, stdout, stderr io.Writer) error {
	baseline := runtime.NumGoroutine()

	dir := f.dir
	if dir == "" {
		if f.ltOut != "" {
			dir = filepath.Join(f.ltOut, "state")
		} else {
			var err error
			if dir, err = os.MkdirTemp("", "rfsimd-resume-"); err != nil {
				return fmt.Errorf("state dir: %w", err)
			}
			defer os.RemoveAll(dir)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}

	cfg := f.serverConfig()
	cfg.dir = dir

	specs := stormSpecs(f.unique, f.ltCycles)

	// Reference: the same specs, uninterrupted, on a pristine server.
	// Result bytes from the storm must match these exactly.
	ref, err := stormReference(f, specs)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	// Daemon incarnation A.
	drainACtx, drainACancel := context.WithCancel(context.Background())
	defer drainACancel()
	srvA, err := newServer(drainACtx, cfg)
	if err != nil {
		return err
	}

	// The mid-storm kill trigger, armed before the listener opens: it
	// fires from the compute seam midway through the first wave of
	// fresh points, so producers die mid-simulation with their result
	// logs still open — the exact state kill -9 leaves behind.
	killComputes := int64(f.unique*stormPoints) / 2
	if killComputes < 1 {
		killComputes = 1
	}
	var computesA atomic.Int64
	var killOnce sync.Once
	killCh := make(chan struct{})
	srvA.onCompute = func(string) {
		if computesA.Add(1) == killComputes {
			killOnce.Do(func() { close(killCh) })
		}
	}

	tsA := startInProc(f, srvA)

	quota := f.gcMaxBytes
	if quota <= 0 {
		quota = 8 << 20
	}
	janA, err := janitor.New(janitor.Config{
		Dir:      dir,
		MaxBytes: quota,
		MaxAge:   f.gcMaxAge,
		Interval: 100 * time.Millisecond,
		Pinned:   srvA.artifactPinned,
	})
	if err != nil {
		return fmt.Errorf("janitor: %w", err)
	}
	srvA.jan = janA
	go janA.Run(drainACtx)

	// Cut offsets are drawn from [0, 2*CutAfter) per connection and
	// accumulate across keep-alive reuse, so with a span a few outcome
	// lines wide the cuts land everywhere: mid-line (no cursor banked,
	// the client re-POSTs) and between durable frames (cursor banked,
	// the client resumes with a GET).
	proxy, err := netchaos.New(netchaos.Config{
		Target:    strings.TrimPrefix(tsA.URL, "http://"),
		Seed:      f.chaosSeed,
		Latency:   time.Millisecond,
		CutProb:   0.35,
		CutAfter:  4096,
		TruncProb: 0.5,
		StallProb: 0.1,
		Stall:     25 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	var vioMu sync.Mutex
	var violations []error
	violate := func(format string, args ...interface{}) {
		vioMu.Lock()
		violations = append(violations, fmt.Errorf(format, args...))
		vioMu.Unlock()
	}

	fmt.Fprintf(stdout, "resume-storm: %d runs, %d clients, %d keyed jobs x %d points, proxy %s -> daemon (seed %d, quota %d bytes)\n",
		f.requests, f.clients, f.unique, stormPoints, proxy.Addr(), f.chaosSeed, quota)

	// Every client dials the proxy, never the daemon: connection reuse
	// accumulates downstream byte offsets toward each connection's
	// pre-drawn cut, so faults land mid-stream at arbitrary points.
	stormHTTP := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: f.clients,
		IdleConnTimeout:     2 * time.Second,
	}}

	var computes atomic.Int64
	restartDone := make(chan struct{})
	replayDone := make(chan struct{})
	drainBCtx, drainBCancel := context.WithCancel(context.Background())
	defer drainBCancel()
	var (
		srvB        *server
		tsB         *httptest.Server
		janB        *janitor.Janitor
		restartErr  error
		restartTook time.Duration
		replayKeys  []string
		queuePeakA  int64
	)
	restart := func() {
		defer close(restartDone)
		begin := time.Now()
		// The kill: drain-cancel first — in-flight computes abort with
		// their result logs left open, exactly the state kill -9
		// leaves behind — then tear down the listener and the process
		// state. The proxy keeps listening; its clients see resets and
		// refused dials, the shape a real restart has on the wire.
		queuePeakA = srvA.metrics.Snapshot().QueuePeak
		drainACancel()
		tsA.Close()
		srvA.close()

		srvB, restartErr = newServer(drainBCtx, cfg)
		if restartErr != nil {
			close(replayDone)
			return
		}
		for _, ent := range srvB.replay {
			replayKeys = append(replayKeys, ent.id)
		}
		srvB.onCompute = func(string) { computes.Add(1) }
		janB, restartErr = janitor.New(janitor.Config{
			Dir:      dir,
			MaxBytes: quota,
			MaxAge:   f.gcMaxAge,
			Interval: 100 * time.Millisecond,
			Pinned:   srvB.artifactPinned,
		})
		if restartErr != nil {
			close(replayDone)
			return
		}
		srvB.jan = janB
		go janB.Run(drainBCtx)
		tsB = startInProc(f, srvB)
		proxy.SetTarget(strings.TrimPrefix(tsB.URL, "http://"))
		restartTook = time.Since(begin)
		go func() {
			defer close(replayDone)
			srvB.replayRecovered(drainBCtx)
		}()
	}
	// killCh always closes: the first storm wave computes every fresh
	// point exactly once, and killComputes is strictly less than that.
	go func() {
		<-killCh
		restart()
	}()

	// The storm.
	results := make([]stormRun, f.requests)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < f.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = stormFire(proxy.Addr(), stormHTTP, f, specs, i)
			}
		}()
	}
	for i := 0; i < f.requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	stormElapsed := time.Since(start)

	select {
	case <-restartDone:
	case <-time.After(30 * time.Second):
		violate("mid-storm restart never completed")
	}
	if restartErr != nil {
		violate("mid-storm restart failed: %v", restartErr)
	}
	select {
	case <-replayDone:
	case <-time.After(60 * time.Second):
		violate("boot replay did not finish after the storm")
	}

	// Per-run verdicts: convergence, exactly-once, byte-identity.
	var totalPosts, totalResumes, totalDups, totalBackoffs int
	for i := range results {
		r := &results[i]
		totalPosts += r.stats.Posts
		totalResumes += r.stats.Resumes
		totalDups += r.stats.Duplicates
		totalBackoffs += r.stats.Backoffs
		if r.err != nil {
			violate("run %d (spec %d): %v", r.item, r.unique, r.err)
			continue
		}
		if r.summary.Failed != 0 || r.summary.Error != "" {
			violate("run %d (spec %d): dirty summary: failed=%d error=%q",
				r.item, r.unique, r.summary.Failed, r.summary.Error)
		}
		if r.redelivered != 0 {
			violate("run %d (spec %d): %d outcomes delivered more than once",
				r.item, r.unique, r.redelivered)
		}
		want := ref[r.unique]
		if len(r.outcomes) != len(want) {
			violate("run %d (spec %d): %d outcomes delivered, want %d",
				r.item, r.unique, len(r.outcomes), len(want))
			continue
		}
		for idx, blob := range want {
			got, ok := r.outcomes[idx]
			if !ok {
				violate("run %d (spec %d): point %d never delivered", r.item, r.unique, idx)
				continue
			}
			if !bytes.Equal(got.Result, blob) {
				violate("run %d (spec %d): point %d result bytes diverge from the uninterrupted reference",
					r.item, r.unique, idx)
			}
		}
	}

	// The faults must have actually bitten, or the run proves nothing.
	pst := proxy.Stats()
	if pst.Cuts == 0 {
		violate("the proxy never cut a stream — the storm was not a storm")
	}
	if totalResumes == 0 {
		violate("no client ever issued a cursor GET — the resume path went unexercised")
	}

	// Post-restart probes against daemon B, direct (no proxy): the
	// durable logs answer without recomputation.
	if srvB != nil && restartErr == nil {
		stormQuiesce(srvB, violate)
		probeDurableReads(tsB, srvB, &computes, results, ref, replayKeys, specs, violate, stdout)

		snapB := srvB.metrics.Snapshot()
		if snapB.QueueDepth != 0 || snapB.ActiveJobs != 0 {
			violate("stranded jobs: queue depth %d, active %d after drain", snapB.QueueDepth, snapB.ActiveJobs)
		}
		if d := srvB.adm.depthNow(); d != 0 {
			violate("stranded admission slots: depth %d after drain", d)
		}
		if p := srvB.pinCount(); p != 0 {
			violate("stranded janitor pins: %d after drain", p)
		}
		if n := srvB.jobs.liveEntries(); n != 0 {
			violate("stranded result-log entries: %d still live after drain", n)
		}
		if open := srvB.jobs.heldEntries(); open != 0 {
			violate("%d recovered logs still open after replay and drain", open)
		}
		maxQueue := int64(cfg.withDefaults().maxQueue)
		if queuePeakA > maxQueue || snapB.QueuePeak > maxQueue {
			violate("queue peak overshot the admission bound %d (A=%d, B=%d)",
				maxQueue, queuePeakA, snapB.QueuePeak)
		}
		if snapB.JobsAttached == 0 && f.requests > f.unique {
			violate("no keyed POST ever attached to an existing job")
		}
		fmt.Fprintf(stdout, "resume-storm: restart took %v, %d open logs replayed\n",
			restartTook.Round(time.Millisecond), len(replayKeys))
		fmt.Fprintln(stdout, snapB.Render())
	}

	// Teardown, then the leak and disk-quota invariants.
	stormHTTP.CloseIdleConnections()
	proxy.Close()
	if tsB != nil {
		tsB.Close()
	}
	drainBCancel()
	if srvB != nil {
		srvB.close()
	}

	leakDeadline := time.Now().Add(15 * time.Second)
	for runtime.NumGoroutine() > baseline+8 {
		if time.Now().After(leakDeadline) {
			var buf bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			violate("goroutine leak: %d at start, %d after teardown\n%s",
				baseline, runtime.NumGoroutine(), buf.String())
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	if janB != nil {
		if rep := janB.Sweep(); rep.LiveBytes > quota {
			violate("disk quota violated after final sweep: %d live bytes > %d quota", rep.LiveBytes, quota)
		}
	}

	fmt.Fprintf(stdout, "resume-storm: %d runs in %v: %d posts, %d cursor resumes, %d duplicate frames suppressed, %d backoffs\n",
		f.requests, stormElapsed.Round(time.Millisecond), totalPosts, totalResumes, totalDups, totalBackoffs)
	fmt.Fprintf(stdout, "proxy: %d conns, %d cuts (%d torn), %d stalls, %d dial errors, %d bytes down\n",
		pst.Conns, pst.Cuts, pst.Truncs, pst.Stalls, pst.DialErrors, pst.BytesDown)

	if f.ltOut != "" {
		if err := writeStormReport(f.ltOut, violations, results, pst, restartTook, totalResumes, totalDups); err != nil {
			fmt.Fprintf(stderr, "resume-storm: writing artifacts: %v\n", err)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d invariant violations:\n%w", len(violations), errors.Join(violations...))
	}
	fmt.Fprintln(stdout, "resume-storm: all invariants held")
	return nil
}

// stormReference runs every spec to completion on a pristine faultless
// server and returns the canonical result bytes per spec per point.
func stormReference(f *daemonFlags, specs []ltSpec) ([]map[int][]byte, error) {
	refDir, err := os.MkdirTemp("", "rfsimd-resume-ref-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := f.serverConfig()
	cfg.dir = refDir
	srv, err := newServer(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	ts := startInProc(f, srv)
	defer ts.Close()

	cl := rfclient.New(rfclient.Config{BaseURL: ts.URL, HTTP: ts.Client(), Seed: f.chaosSeed})
	out := make([]map[int][]byte, len(specs))
	for u, s := range specs {
		col := rfclient.NewCollector()
		sum, _, err := cl.Run(context.Background(), s.body, col.Add)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", u, err)
		}
		if sum.Failed != 0 {
			return nil, fmt.Errorf("spec %d: %d points failed on a faultless server", u, sum.Failed)
		}
		m := map[int][]byte{}
		for idx, o := range col.Outcomes() {
			m[idx] = o.Result
		}
		out[u] = m
	}
	return out, nil
}

// stormFire is one client run: submit spec item%unique under its
// stable idempotency key through the proxy and follow it to a terminal
// state, resuming across every cut and the daemon restart.
func stormFire(proxyAddr string, httpc *http.Client, f *daemonFlags, specs []ltSpec, item int) stormRun {
	u := item % len(specs)
	cl := rfclient.New(rfclient.Config{
		BaseURL:        "http://" + proxyAddr,
		HTTP:           httpc,
		IdempotencyKey: stormKey(u),
		MaxAttempts:    30,
		BaseBackoff:    10 * time.Millisecond,
		MaxBackoff:     250 * time.Millisecond,
		StallTimeout:   10 * time.Second,
		Seed:           f.chaosSeed + int64(item),
	})
	col := rfclient.NewCollector()
	sum, st, err := cl.Run(context.Background(), specs[u].body, col.Add)
	return stormRun{
		item: item, unique: u, jobID: st.JobID,
		summary: sum, stats: st,
		outcomes: col.Outcomes(), redelivered: col.Duplicates(),
		err: err,
	}
}

// stormQuiesce waits for the restarted daemon to finish every job the
// storm and the replay left in flight.
func stormQuiesce(srv *server, violate func(string, ...interface{})) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := srv.metrics.Snapshot()
		if snap.QueueDepth == 0 && snap.ActiveJobs == 0 && srv.jobs.heldEntries() == 0 {
			return
		}
		if time.Now().After(deadline) {
			violate("storm never quiesced: queue %d, active %d, open recovered logs %d",
				snap.QueueDepth, snap.ActiveJobs, srv.jobs.heldEntries())
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// probeDurableReads asserts the restart left nothing that needs
// recomputing: every job's cursor GET replays the durable log
// byte-identically with zero computes, and a re-POST of a spec the
// boot replay re-ran is answered from the rebuilt cache, cached:true on
// every point.
func probeDurableReads(ts *httptest.Server, srv *server, computes *atomic.Int64,
	results []stormRun, ref []map[int][]byte, replayKeys []string, specs []ltSpec,
	violate func(string, ...interface{}), stdout io.Writer) {

	jobIDs := map[int]string{}
	uniqueOf := map[string]int{}
	for _, r := range results {
		if r.jobID != "" {
			jobIDs[r.unique] = r.jobID
			uniqueOf[r.jobID] = r.unique
		}
	}
	cl := ts.Client()

	c0 := computes.Load()
	for u, id := range jobIDs {
		resp, err := cl.Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=1", ts.URL, id))
		if err != nil {
			violate("job %d (%s): GET: %v", u, id, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			violate("job %d (%s): GET status %d: %s", u, id, resp.StatusCode, body)
			continue
		}
		if err := checkDurableStream(body, ref[u]); err != nil {
			violate("job %d (%s): durable replay: %v", u, id, err)
		}
	}
	if c1 := computes.Load(); c1 != c0 {
		violate("GET /v1/jobs/{id}/results recomputed %d points — reads must come from the durable log", c1-c0)
	}

	// Boot-replayed specs: the replay recomputed them into the
	// cache, so an unkeyed re-POST must be all cache hits.
	probed := 0
	for _, key := range replayKeys {
		u, ok := uniqueOf[key]
		if !ok {
			continue // a job no surviving client record names (e.g. its runs all failed)
		}
		c := computes.Load()
		resp, err := cl.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(specs[u].body))
		if err != nil {
			violate("replayed spec %d: re-POST: %v", u, err)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			violate("replayed spec %d: re-POST status %d: %s", u, resp.StatusCode, body)
			continue
		}
		if err := checkAllCached(body, ref[u]); err != nil {
			violate("replayed spec %d: re-POST not served from the replayed cache: %v", u, err)
		}
		if got := computes.Load(); got != c {
			violate("replayed spec %d: re-POST recomputed %d points", u, got-c)
		}
		probed++
	}
	if len(replayKeys) == 0 {
		// The kill can land in an instant with no open logs (every
		// in-flight run attached to a done job). The surgical e2e test
		// pins this path deterministically; here it is only a note.
		fmt.Fprintln(stdout, "resume-storm: note: no result logs were open at the kill; replay probe skipped")
	} else {
		fmt.Fprintf(stdout, "resume-storm: %d replayed specs re-served from cache with zero recomputation\n", probed)
	}
}

// checkDurableStream validates a cursor GET of a sealed job: job line,
// then every outcome with a durable seq and the reference bytes, then
// exactly one sealed summary.
func checkDurableStream(body []byte, want map[int][]byte) error {
	got := map[int][]byte{}
	summaries := 0
	if err := scanStorm(body, func(lineNo int, rec stormRec) error {
		switch rec.Type {
		case "job":
			if lineNo != 1 {
				return fmt.Errorf("line %d: stray job line", lineNo)
			}
		case "outcome":
			if rec.Seq <= 0 {
				return fmt.Errorf("line %d: log-replayed outcome without a durable seq", lineNo)
			}
			if rec.Error != "" {
				return fmt.Errorf("line %d: failed outcome in the durable log: %s", lineNo, rec.Error)
			}
			got[rec.Index] = append([]byte(nil), rec.Result...)
		case "summary":
			summaries++
			if rec.Seq <= 0 || rec.Error != "" || rec.Failed != 0 {
				return fmt.Errorf("line %d: summary is not the sealed durable record", lineNo)
			}
		case "idle":
			return fmt.Errorf("line %d: job reported idle — its log is incomplete", lineNo)
		default:
			return fmt.Errorf("line %d: unknown record type %q", lineNo, rec.Type)
		}
		return nil
	}); err != nil {
		return err
	}
	if summaries != 1 {
		return fmt.Errorf("%d summary lines, want 1", summaries)
	}
	return diffResults(got, want)
}

// checkAllCached validates a re-POST answered from the cache: every
// outcome cached:true with the reference bytes, one clean summary.
func checkAllCached(body []byte, want map[int][]byte) error {
	got := map[int][]byte{}
	summaries := 0
	if err := scanStorm(body, func(lineNo int, rec stormRec) error {
		switch rec.Type {
		case "job":
		case "outcome":
			if rec.Error != "" {
				return fmt.Errorf("line %d: failed outcome: %s", lineNo, rec.Error)
			}
			if !rec.Cached {
				return fmt.Errorf("line %d: point %d not marked cached", lineNo, rec.Index)
			}
			got[rec.Index] = append([]byte(nil), rec.Result...)
		case "summary":
			summaries++
			if rec.Error != "" || rec.Failed != 0 {
				return fmt.Errorf("line %d: dirty summary", lineNo)
			}
		default:
			return fmt.Errorf("line %d: unexpected record type %q", lineNo, rec.Type)
		}
		return nil
	}); err != nil {
		return err
	}
	if summaries != 1 {
		return fmt.Errorf("%d summary lines, want 1", summaries)
	}
	return diffResults(got, want)
}

// stormRec is the decode shape the storm probes read streams through;
// Result stays raw so byte-identity is checked on the wire bytes.
type stormRec struct {
	Type   string          `json:"type"`
	Seq    int64           `json:"seq"`
	Index  int             `json:"index"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Failed int             `json:"failed"`
	Result json.RawMessage `json:"result"`
}

func scanStorm(body []byte, visit func(int, stormRec) error) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		var rec stormRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("line %d: malformed NDJSON: %v", lineNo, err)
		}
		if err := visit(lineNo, rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

func diffResults(got, want map[int][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outcomes, want %d", len(got), len(want))
	}
	for idx, blob := range want {
		if !bytes.Equal(got[idx], blob) {
			return fmt.Errorf("point %d: result bytes diverge from the reference", idx)
		}
	}
	return nil
}

// writeStormReport lands resume_report.json under -lt-out for CI.
func writeStormReport(dir string, violations []error, results []stormRun,
	pst netchaos.Stats, restartTook time.Duration, resumes, dups int) error {

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type runView struct {
		Item     int    `json:"item"`
		Unique   int    `json:"unique"`
		JobID    string `json:"job_id"`
		Posts    int    `json:"posts"`
		Resumes  int    `json:"resumes"`
		Dups     int    `json:"duplicates_suppressed"`
		Backoffs int    `json:"backoffs"`
		Err      string `json:"error,omitempty"`
	}
	report := struct {
		Violations []string       `json:"violations"`
		Proxy      netchaos.Stats `json:"proxy"`
		RestartMS  int64          `json:"restart_ms"`
		Resumes    int            `json:"resumes"`
		Duplicates int            `json:"duplicates_suppressed"`
		Runs       []runView      `json:"runs"`
	}{Proxy: pst, RestartMS: restartTook.Milliseconds(), Resumes: resumes, Duplicates: dups}
	for _, v := range violations {
		report.Violations = append(report.Violations, v.Error())
	}
	for _, r := range results {
		rv := runView{Item: r.item, Unique: r.unique, JobID: r.jobID,
			Posts: r.stats.Posts, Resumes: r.stats.Resumes,
			Dups: r.stats.Duplicates, Backoffs: r.stats.Backoffs}
		if r.err != nil {
			rv.Err = r.err.Error()
		}
		report.Runs = append(report.Runs, rv)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "resume_report.json"), append(blob, '\n'), 0o644)
}
