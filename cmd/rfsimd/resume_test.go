package main

// Exactly-once delivery e2e tests (PR 9): a resuming rfclient driven
// through the netchaos proxy must deliver every point outcome exactly
// once and byte-identical to an uninterrupted run, across injected
// mid-stream resets at random byte offsets AND a daemon kill+restart
// over the same state directory; after the restart, cursor GETs must
// be answered from the durable result log with zero recomputation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/rfclient"
)

// refOutcomes runs req to completion on a pristine server and returns
// the raw result bytes per point index.
func refOutcomes(t *testing.T, req SweepRequest) map[int][]byte {
	t.Helper()
	_, ts := e2eServer(t, serverConfig{})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	cl := rfclient.New(rfclient.Config{BaseURL: ts.URL, HTTP: ts.Client()})
	col := rfclient.NewCollector()
	sum, _, err := cl.Run(context.Background(), body, col.Add)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if sum.Failed != 0 {
		t.Fatalf("reference run failed %d points", sum.Failed)
	}
	ref := map[int][]byte{}
	for idx, o := range col.Outcomes() {
		ref[idx] = o.Result
	}
	return ref
}

// TestResumeExactlyOnceAcrossRestart is the acceptance property test,
// made deterministic: every proxied connection is cut (CutProb=1) at a
// random offset, and the daemon is killed the way kill -9 kills it —
// drain-cancel at the second fresh compute, result log left open —
// then restarted over the same directory while the
// client is still retrying. The client must converge with every
// outcome delivered exactly once and byte-identical to the reference,
// and the restarted daemon must answer cursor GETs purely from the
// durable log.
func TestResumeExactlyOnceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := SweepRequest{Points: []PointSpec{
		{Workload: "uniform", Cycles: 20_000, Seed: 901},
		{Design: "static", Workload: "bidf", Cycles: 20_000, Seed: 902},
		{Design: "wire-static", Workload: "2hotspot", Cycles: 20_000, Seed: 903},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ref := refOutcomes(t, req)

	// Daemon incarnation A, rigged to die mid-sweep: the drain context
	// is cancelled at the second fresh compute, so point results and the
	// accepted request are on disk but the job is unfinished.
	cfg := serverConfig{dir: dir}
	drainACtx, drainACancel := context.WithCancel(context.Background())
	defer drainACancel()
	srvA, err := newServer(drainACtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var computesA atomic.Int64
	killed := make(chan struct{})
	srvA.onCompute = func(string) {
		if computesA.Add(1) == 2 {
			close(killed)
		}
	}
	tsA := httptest.NewServer(srvA.handler())

	proxy, err := netchaos.New(netchaos.Config{
		Target:    strings.TrimPrefix(tsA.URL, "http://"),
		Seed:      5,
		CutProb:   1, // every connection dies at a random offset
		CutAfter:  2048,
		TruncProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The controller: on the kill signal, tear daemon A down without
	// settling anything, bring daemon B up over the same state, point
	// the proxy at it, and replay the open logs.
	var srvB *server
	var tsB *httptest.Server
	var computesB atomic.Int64
	restartDone := make(chan struct{})
	replayDone := make(chan struct{})
	go func() {
		defer close(restartDone)
		<-killed
		drainACancel()
		tsA.Close()
		srvA.close()

		var err error
		srvB, err = newServer(context.Background(), cfg)
		if err != nil {
			t.Errorf("restart: %v", err)
			close(replayDone)
			return
		}
		if len(srvB.replay) == 0 {
			t.Error("no open result log recovered — the kill landed after settle")
		}
		srvB.onCompute = func(string) { computesB.Add(1) }
		tsB = httptest.NewServer(srvB.handler())
		proxy.SetTarget(strings.TrimPrefix(tsB.URL, "http://"))
		go func() {
			defer close(replayDone)
			srvB.replayRecovered(context.Background())
		}()
	}()

	// The client, dialing only the proxy, resuming across every cut
	// and the restart.
	cl := rfclient.New(rfclient.Config{
		BaseURL:        "http://" + proxy.Addr(),
		IdempotencyKey: "e2e-restart",
		MaxAttempts:    40,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		StallTimeout:   10 * time.Second,
		Seed:           1,
	})
	col := rfclient.NewCollector()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sum, st, err := cl.Run(ctx, body, col.Add)
	if err != nil {
		t.Fatalf("client never converged: %v (stats %+v)", err, st)
	}
	if sum.Failed != 0 || sum.Error != "" {
		t.Fatalf("dirty summary: %+v", sum)
	}

	// Exactly-once, byte-identical.
	if d := col.Duplicates(); d != 0 {
		t.Errorf("%d outcomes delivered more than once", d)
	}
	got := col.Outcomes()
	if len(got) != len(req.Points) {
		t.Fatalf("%d outcomes delivered, want %d", len(got), len(req.Points))
	}
	for idx, want := range ref {
		if !bytes.Equal(got[idx].Result, want) {
			t.Errorf("point %d: delivered bytes diverge from the uninterrupted run\ngot:  %s\nwant: %s",
				idx, got[idx].Result, want)
		}
	}

	// The faults really fired and the client really survived them.
	if pst := proxy.Stats(); pst.Cuts == 0 {
		t.Error("the proxy never cut a connection")
	}
	if st.Posts+st.Resumes < 2 {
		t.Errorf("client stats %+v: the run was never interrupted", st)
	}

	select {
	case <-restartDone:
	case <-time.After(30 * time.Second):
		t.Fatal("restart never completed")
	}
	select {
	case <-replayDone:
	case <-time.After(60 * time.Second):
		t.Fatal("boot replay never finished")
	}
	if srvB == nil {
		t.Fatal("no restarted server")
	}
	defer srvB.close()
	defer tsB.Close()
	if open := srvB.jobs.heldEntries(); open != 0 {
		t.Fatalf("%d recovered logs still open after replay", open)
	}

	// GET after restart: the durable log answers from the cursor with
	// zero recomputation, byte-identical again.
	c0 := computesB.Load()
	resp, err := tsB.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=1", tsB.URL, st.JobID))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d: %s", resp.StatusCode, blob)
	}
	if err := checkDurableStream(blob, ref); err != nil {
		t.Fatalf("durable replay: %v", err)
	}
	if c1 := computesB.Load(); c1 != c0 {
		t.Errorf("GET /v1/jobs/{id}/results recomputed %d points", c1-c0)
	}

	// Re-POSTing the same sweep is answered from the cache the replay
	// (and the client's resumed producer) rebuilt: cached:true on
	// every point, still zero fresh computes.
	resp2, body2 := postSweep(t, tsB, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-POST status %d: %s", resp2.StatusCode, body2)
	}
	for _, rec := range decodeStream(t, body2) {
		if rec.Type == "outcome" && !rec.Cached {
			t.Errorf("re-POST point %d not served from the replayed cache", rec.Index)
		}
	}
	if c2 := computesB.Load(); c2 != c0 {
		t.Errorf("re-POST recomputed %d points", c2-c0)
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, error) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestPostStreamCarriesEarlierFrames: a keyed re-POST that restarts an
// idle job whose log already holds a frame must carry that frame on its
// stream before any later seq. A client takes the last seq it read as
// its resume cursor, so a stream that went from seq 0 straight to seq 2
// and was cut there would lose seq 1's point for good. The first POST
// fails index 0 (an injected panic) and logs index 1 at seq 1; the
// second, with one worker, logs index 0 at seq 2.
func TestPostStreamCarriesEarlierFrames(t *testing.T) {
	srv, ts := e2eServer(t, serverConfig{dir: t.TempDir(), workers: 1, retries: 0})
	req := sweeps(1, 2, 300)[0]
	pts, err := compileRequest(req, srv.mesh, specLimits{}, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := pts[0].Meta["config"]
	if bad == "" || bad == pts[1].Meta["config"] {
		t.Fatal("the two points need distinct config fingerprints")
	}
	var panicOn atomic.Bool
	panicOn.Store(true)
	srv.chaosPanic = func(fp string) bool { return panicOn.Load() && fp == bad }

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func() []streamLine {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Idempotency-Key", "carry-earlier-frames")
		resp, err := ts.Client().Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST: status %d, %v: %s", resp.StatusCode, err, blob)
		}
		return decodeStream(t, blob)
	}

	first := post()
	logged := false
	for _, rec := range first {
		if rec.Type == "outcome" && rec.Index == 1 && rec.Seq == 1 {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("first POST did not log index 1 at seq 1: %+v", first)
	}

	panicOn.Store(false)
	seen, carried := map[int64]bool{}, map[int]bool{}
	for _, rec := range post() {
		if rec.Seq > 0 {
			for s := int64(1); s < rec.Seq; s++ {
				if !seen[s] && !(s == 1 && carried[1]) {
					t.Fatalf("stream carried seq %d before seq %d: a client cut there resumes past seq %d", rec.Seq, s, s)
				}
			}
			seen[rec.Seq] = true
		}
		if rec.Type == "outcome" && rec.Error == "" {
			if carried[rec.Index] {
				t.Errorf("stream carried index %d twice", rec.Index)
			}
			carried[rec.Index] = true
		}
	}
	if !carried[0] || !carried[1] || !seen[3] {
		t.Errorf("second POST: indices carried %v, seqs %v; want both indices and the summary at seq 3", carried, seen)
	}
}

// TestPostStreamOneSummaryWhenSealedElsewhere drives a POST stream's
// end-of-run step directly. The stream logs index 0 of a 1-point job,
// then a second producer seals the job before this run's own summary
// can: the stream must end on the logged summary alone, never on it and
// a transient one besides.
func TestPostStreamOneSummaryWhenSealedElsewhere(t *testing.T) {
	reg := newJobRegistry(t.TempDir(), 0, obs.NewServiceMetrics())
	hdr := testHeader("g")
	e, _, err := reg.attach(hdr.Job, hdr.Req, 1, hdr.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if err := reg.startProducer(e); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	st := newJobStream(rec, e)
	st.logOutcome(reg, outcomeLine{Type: "outcome", Index: 0})
	if !reg.appendSummary(e, summaryLine{Type: "summary", Points: 1}) {
		t.Fatal("the second producer could not seal the job")
	}
	reg.endProducer(e, true)
	if reg.appendSummary(e, summaryLine{Type: "summary", Points: 1}) {
		t.Fatal("the job sealed twice")
	}
	st.finish(summaryLine{Type: "summary", Points: 1})
	reg.endProducer(e, true)

	var summaries []streamLine
	for _, l := range decodeStream(t, rec.Body.Bytes()) {
		if l.Type == "summary" {
			summaries = append(summaries, l)
		}
	}
	if len(summaries) != 1 || summaries[0].Seq != 2 {
		t.Fatalf("stream ended on summaries %+v, want exactly one, at seq 2:\n%s", summaries, rec.Body.Bytes())
	}
}
