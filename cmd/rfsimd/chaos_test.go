package main

// The service-chaos rig: the load soak re-run with deliberate
// service-level faults, checking not that everything succeeds but that
// the service degrades instead of wedging. Four fault kinds:
//
//   - slow-loris clients: raw connections that dribble header bytes and
//     never finish; the read-header timeout must hang up.
//   - mid-body / mid-stream disconnects: clients that cut the
//     connection halfway through the request body, or walk away while
//     the NDJSON response is still streaming.
//   - worker panics: poison configs panic the simulator on every
//     attempt, driving crash dumps and the quarantine breaker. Under
//     isolation the poison crosses the process boundary instead — one
//     config panics its worker process, one allocates past the worker
//     memory limit, one stops heartbeating — and a post-storm murder
//     SIGKILLs a busy worker mid-point.
//   - cache corruption: cached result blobs are bit-flipped and the
//     spec re-requested; the service must recover by recomputing.
//
// Every accepted request whose stream is read must end in a terminal
// summary; poison configs must be answered 422 with a crash-dump
// reference once the breaker trips and not be re-simulated while it is
// open; corrupt cache entries must degrade to a recompute; and the
// shared teardown checks (queue bound, nothing stranded or leaked, disk
// under quota) must hold.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// chaosKind labels the fault (or lack of one) assigned to a request.
type chaosKind int

const (
	kindNormal    chaosKind = iota
	kindBatch               // batch priority: may be shed by the interactive reserve
	kindDeadline            // carries a deadline_ms it will likely miss
	kindPoison              // names a config that always panics
	kindSlowLoris           // never finishes its headers
	kindMidBody             // cuts the connection mid-request or mid-stream
)

func (k chaosKind) String() string {
	return [...]string{"normal", "batch", "deadline", "poison", "slow-loris", "disconnect"}[k]
}

// TestServiceChaos: 500 requests from 32 clients over 40 unique specs,
// all five fault kinds, fault assignment seeded with 7.
func TestServiceChaos(t *testing.T) {
	runChaos(t, false, 500, 32, 40, 7)
}

// TestServiceChaosIsolate: 300 requests from 24 clients over 30 unique
// specs, seed 11, with worker-hostile poison and the worker murder. The
// pool must record the crashes, OOMs and heartbeat kills.
func TestServiceChaosIsolate(t *testing.T) {
	runChaos(t, true, 300, 24, 30, 11)
}

func runChaos(t *testing.T, isolate bool, requests, clients, unique int, seed int64) {
	if testing.Short() {
		t.Skip("service chaos")
	}
	noGoroutineLeak(t)
	dir := t.TempDir()
	cfg := serverConfig{
		maxQueue: 16, maxActive: 4, interactiveReserve: 4,
		retries: 1, cacheEntries: 4096,
		maxJobCycles: 500_000, quarK: 2, dir: dir, check: true,
		// The breaker stays open for the rest of the run, so "not
		// re-simulated while quarantined" is deterministic; half-open
		// probing is covered by the quarantine unit tests.
		quarCooldown: time.Hour,
	}
	if isolate {
		// Bound the alloc fault: without a memory limit the poisoned
		// child would hoard until the host itself runs out.
		cfg = isolateConfig(cfg)
		cfg.workerMem = 64 << 20
	}
	srv, ts := e2eServer(t, cfg)
	// Tight enough that the storm's result logs and crash dumps
	// overflow it and the janitor visibly reclaims.
	startJanitor(t, context.Background(), srv, 1<<20)
	client := ts.Client()
	addr := strings.TrimPrefix(ts.URL, "http://")

	// Compile the spec pool exactly the way the server will, so the
	// seams key on the service's own fingerprints.
	rng := rand.New(rand.NewSource(seed))
	pool := sweeps(unique, 1, 200)
	poolFPs := make([]string, len(pool))
	for i, req := range pool {
		poolFPs[i] = compileOne(t, srv, req).Fingerprint
	}

	// Poison configs use the adaptive design, which the pool never
	// does: the panic seam keys on the config fingerprint, so the
	// designs must not collide.
	var poison []SweepRequest
	var poisonCfgs, poisonPts []string
	for _, p := range []PointSpec{
		{Design: "adaptive", Workload: "uniform", Seed: 999_001, Cycles: 200},
		{Design: "adaptive", RFRouters: 25, Workload: "bidf", Seed: 999_002, Cycles: 200},
		{Design: "adaptive", RFRouters: 100, Workload: "2hotspot", Seed: 999_003, Cycles: 200},
	} {
		req := SweepRequest{Points: []PointSpec{p}}
		pt := compileOne(t, srv, req)
		poison = append(poison, req)
		poisonCfgs = append(poisonCfgs, pt.Meta["config"])
		poisonPts = append(poisonPts, pt.Fingerprint)
	}
	if isolate {
		// Each poison config kills its worker process a different way —
		// a Go panic, an allocation storm into the memory limit, a
		// heartbeat-stopping hang — and all of them must land in the
		// same quarantine breaker an in-process panic does.
		hostile := [...]string{"panic", "alloc", "hang"}
		fault := map[string]string{}
		for i, fp := range poisonPts {
			fault[fp] = hostile[i%len(hostile)]
		}
		srv.chaosWorkerJob = func(fp string) string { return fault[fp] }
	} else {
		panics := map[string]bool{}
		for _, fp := range poisonCfgs {
			panics[fp] = true
		}
		srv.chaosPanic = func(cfgFP string) bool { return panics[cfgFP] }
	}
	// The exactly-once probe doubles as the "quarantined configs are not
	// re-simulated" probe.
	computes := countComputes(srv)

	kinds := make([]chaosKind, requests)
	for i := range kinds {
		switch p := rng.Float64(); {
		case p < 0.05:
			kinds[i] = kindSlowLoris
		case p < 0.10:
			kinds[i] = kindMidBody
		case p < 0.20:
			kinds[i] = kindPoison
		case p < 0.28:
			kinds[i] = kindDeadline
		case p < 0.50:
			kinds[i] = kindBatch
		default:
			kinds[i] = kindNormal
		}
	}

	// The storm. Connection-level faults leave nothing accepted to
	// validate; every other request must settle on a status its fault
	// explains, and a 200 must carry a well-formed stream (honest
	// fault-induced point failures allowed).
	fanOut(t, requests, clients, func(i int) {
		req := pool[i%len(pool)]
		switch kinds[i] {
		case kindSlowLoris:
			if err := slowLoris(addr); err != nil {
				t.Errorf("slow-loris %d: %v", i, err)
			}
			return
		case kindMidBody:
			if i%2 == 0 {
				midBodyCut(addr)
			} else {
				midStreamCut(client, ts.URL, i)
			}
			return
		case kindPoison:
			req = poison[i%len(poison)]
		case kindDeadline:
			req.DeadlineMS = 3
		case kindBatch:
			req.Priority = "batch"
		}
		status, body := fire(t, client, ts.URL, req)
		switch {
		case status == http.StatusOK:
			if _, err := checkNDJSON(body, 1, true); err != nil {
				t.Errorf("request %d (%s): %v\n%s", i, kinds[i], err, body)
			}
		case status == http.StatusUnprocessableEntity && kinds[i] == kindPoison:
		case status == http.StatusServiceUnavailable && kinds[i] == kindDeadline:
		default:
			t.Errorf("request %d (%s): final status %d: %s", i, kinds[i], status, body)
		}
	})

	// Poison verification: trip each breaker if the storm has not
	// already, then prove 422 + crash-dump evidence + no re-simulation.
	for pi, req := range poison {
		var status int
		var body []byte
		for attempt := 0; attempt < cfg.quarK+2; attempt++ {
			if status, body = fire(t, client, ts.URL, req); status != http.StatusOK {
				break
			}
		}
		if status != http.StatusUnprocessableEntity {
			t.Errorf("poison config %d: status %d, want the breaker's 422 within %d jobs: %s", pi, status, cfg.quarK+2, body)
			continue
		}
		var envelope struct {
			CrashDump string `json:"crash_dump"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.CrashDump == "" {
			t.Errorf("poison config %d: 422 without a crash-dump reference (%v): %s", pi, err, body)
		}
		if !srv.quar.quarantined(poisonCfgs[pi]) {
			t.Errorf("poison config %d: 422 served but breaker not open", pi)
		}
		before := computes()[poisonPts[pi]]
		if status, _ := fire(t, client, ts.URL, req); status != http.StatusUnprocessableEntity {
			t.Errorf("poison config %d: quarantined config answered %d, want 422", pi, status)
		}
		if after := computes()[poisonPts[pi]]; after != before {
			t.Errorf("poison config %d: re-simulated while quarantined (%d -> %d computes)", pi, before, after)
		}
	}

	// Worker murder: SIGKILL a busy worker under a dedicated long sweep.
	// It runs after the storm, against a config no other request uses,
	// so the collateral panic cannot help trip a shared breaker. The
	// daemon must still answer the request with a terminal summary.
	if isolate {
		req := SweepRequest{Points: []PointSpec{{Design: "static", WidthBytes: 8, Workload: "uniform", Cycles: 100_000, Seed: 31_337}}}
		done := make(chan []byte, 1)
		go func() {
			status, body := fire(t, client, ts.URL, req)
			if status != http.StatusOK {
				t.Errorf("worker murder: request answered %d, want 200: %s", status, body)
			}
			done <- body
		}()
		killed := false
		for i := 0; i < 500 && !killed; i++ {
			time.Sleep(5 * time.Millisecond)
			killed = srv.pool.KillOneBusy()
		}
		body := <-done
		if !killed {
			t.Error("worker murder: no busy worker appeared within the window")
		} else if _, err := checkNDJSON(body, 1, true); err != nil {
			t.Errorf("worker murder: stream invalid after SIGKILL: %v\n%s", err, body)
		}
		st := srv.pool.Stats()
		if st.Crashed == 0 {
			t.Error("worker murder: pool recorded no worker crashes")
		}
		if st.OOM == 0 {
			t.Error("the alloc poison never tripped the worker memory limit")
		}
		if st.KilledHeartbeat == 0 {
			t.Error("the hang poison was never killed for heartbeat loss")
		}
	}

	// An oversized sweep must bounce off the cost ceiling with 413.
	huge := SweepRequest{Points: make([]PointSpec, 4)}
	for i := range huge.Points {
		huge.Points[i] = PointSpec{Workload: "uniform", Cycles: cfg.maxJobCycles, Seed: int64(7_000_000 + i)}
	}
	if status, _ := fire(t, client, ts.URL, huge); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized sweep answered %d, want 413", status)
	}

	// Cache corruption: flip cached blobs, re-request, demand a clean
	// recomputed answer marked recovered in the stream.
	corrupted, recovered := 0, 0
	for i, req := range pool {
		if i%7 != 0 || !srv.cache.Corrupt(poolFPs[i]) {
			continue
		}
		corrupted++
		status, body := fire(t, client, ts.URL, req)
		if status != http.StatusOK {
			t.Errorf("corrupt-cache request for spec %d: status %d: %s", i, status, body)
			continue
		}
		if _, err := checkNDJSON(body, 1, false); err != nil {
			t.Errorf("corrupt-cache request for spec %d did not recover: %v\n%s", i, err, body)
			continue
		}
		if bytes.Contains(body, []byte(`"recovered":true`)) {
			recovered++
		}
	}
	if corrupted > 0 && recovered == 0 {
		t.Errorf("%d cache entries corrupted but no response was marked recovered", corrupted)
	}

	checkDrained(t, srv)
	if srv.metrics.Snapshot().JobsQuarantined == 0 {
		t.Error("no request was ever answered from quarantine")
	}
}

// compileOne compiles a one-point request the way srv will.
func compileOne(t *testing.T, srv *server, req SweepRequest) experiments.SweepPoint {
	t.Helper()
	lim := specLimits{maxPoints: srv.cfg.maxPoints, maxCycles: srv.cfg.maxCycles}
	pts, err := compileRequest(req, srv.mesh, lim, srv.cfg.check)
	if err != nil {
		t.Fatalf("compile %+v: %v", req, err)
	}
	return pts[0]
}

// slowLoris dribbles a fragment of a request and waits for the server
// to enforce its read-header timeout. An error means the server kept
// the connection open past the budget.
func slowLoris(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	io.WriteString(conn, "POST /v1/sweep HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/js") // ... and never finish
	grace := headerTimeout + 5*time.Second
	conn.SetReadDeadline(time.Now().Add(grace))
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("server kept a slow-loris connection open past %v", grace)
			}
			return nil // EOF / reset: the timeout hung up on us, as it must
		}
	}
}

// midBodyCut opens a request announcing a body it never delivers, then
// slams the connection shut.
func midBodyCut(addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	io.WriteString(conn,
		"POST /v1/sweep HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n{\"points\":[{")
	conn.Close()
}

// midStreamCut starts a long sweep and abandons it while the response
// is streaming; the server must cancel the simulation.
func midStreamCut(client *http.Client, baseURL string, i int) {
	spec := PointSpec{Workload: "uniform", Cycles: 100_000, Seed: int64(5_000_000 + i)}
	body, _ := json.Marshal(SweepRequest{Points: []PointSpec{spec}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", baseURL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	time.AfterFunc(10*time.Millisecond, cancel)
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
