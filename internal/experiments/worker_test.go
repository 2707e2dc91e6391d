package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/noc"
	"repro/internal/topology"
)

// TestMain doubles as the worker entry point: the pool re-execs this
// test binary with the env var set, exactly how rfsimd re-execs itself
// with -worker. Without the var, tests run normally.
func TestMain(m *testing.M) {
	if os.Getenv("RFSIM_EXP_WORKER") == "1" {
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// testWorkerCommand builds a pool config that re-execs this test binary
// as a worker.
func testWorkerPool(t *testing.T, cfg WorkerPoolConfig) *WorkerPool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cfg.Command = []string{exe}
	cfg.Env = append(cfg.Env, "RFSIM_EXP_WORKER=1")
	pool, err := NewWorkerPool(cfg)
	if err != nil {
		t.Fatalf("NewWorkerPool: %v", err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// portablePoint builds one wire-shippable sweep point.
func portablePoint(t *testing.T, seed, cycles int64) SweepPoint {
	t.Helper()
	m := topology.New10x10()
	cfg := noc.Config{Mesh: m}
	gen := GenSpec{Workload: "uniform", Rate: 0.01, Seed: seed}
	opts := Options{Cycles: cycles, DrainCycles: 50000, Rate: 0.01, Seed: seed}
	pt, err := NewPortableSweepPoint(cfg, gen, opts, map[string]string{"config": cfg.Fingerprint()})
	if err != nil {
		t.Fatalf("NewPortableSweepPoint: %v", err)
	}
	return pt
}

// TestWorkerPoolBitIdentical is the isolation tentpole's correctness
// anchor: the same points, supervised in-process and through worker
// processes, must produce byte-identical canonical results.
func TestWorkerPoolBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	pts := []SweepPoint{
		portablePoint(t, 11, 400),
		portablePoint(t, 12, 400),
		portablePoint(t, 13, 400),
	}
	ctx := context.Background()

	inproc, err := Supervise(ctx, SuperviseConfig{Workers: 2, Dir: t.TempDir()}, pts)
	if err != nil {
		t.Fatalf("in-process Supervise: %v", err)
	}
	pool := testWorkerPool(t, WorkerPoolConfig{Workers: 2})
	isolated, err := Supervise(ctx, SuperviseConfig{Workers: 2, Dir: t.TempDir(), Exec: pool}, pts)
	if err != nil {
		t.Fatalf("isolated Supervise: %v", err)
	}
	for i := range pts {
		a, err := MarshalResult(inproc[i].Result)
		if err != nil {
			t.Fatalf("marshal in-process %d: %v", i, err)
		}
		b, err := MarshalResult(isolated[i].Result)
		if err != nil {
			t.Fatalf("marshal isolated %d: %v", i, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("point %d: isolated result differs from in-process", i)
		}
	}
	if st := pool.Stats(); st.JobsCompleted != 3 || st.Crashed != 0 {
		t.Errorf("pool stats = %+v, want 3 completed, 0 crashed", st)
	}
}

// TestWorkerPanicBecomesCrashDump: a panic inside a worker process must
// surface exactly like an in-process panic — failed outcome, Panicked,
// crash dump with the worker's stderr (holding the Go panic trace) and
// process-level evidence.
func TestWorkerPanicBecomesCrashDump(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	pool := testWorkerPool(t, WorkerPoolConfig{
		Workers:  1,
		ChaosJob: func(*PointPayload, string) string { return "panic" },
	})
	pts := []SweepPoint{portablePoint(t, 21, 300)}
	outs, err := Supervise(context.Background(), SuperviseConfig{Dir: dir, Retries: 1, RetryBackoff: time.Millisecond, Exec: pool}, pts)
	if err == nil {
		t.Fatal("Supervise succeeded despite a panicking worker")
	}
	o := outs[0]
	if o.Err == nil || !o.Panicked {
		t.Fatalf("outcome = %+v, want failed and Panicked", o)
	}
	if o.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (retry after crash)", o.Attempts)
	}
	if o.CrashDump == "" {
		t.Fatal("no crash dump written")
	}
	blob, err := os.ReadFile(o.CrashDump)
	if err != nil {
		t.Fatalf("reading crash dump: %v", err)
	}
	var dump CrashDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("crash dump not JSON: %v", err)
	}
	if !strings.Contains(dump.Stack, "injected panic") {
		t.Errorf("dump stack does not carry the worker's panic output:\n%s", dump.Stack)
	}
	if dump.Evidence == nil || !dump.Evidence.Worker {
		t.Errorf("dump evidence = %+v, want worker evidence", dump.Evidence)
	}
	if dump.Evidence != nil && dump.Evidence.ExitCode != 2 {
		t.Errorf("evidence exit code = %d, want 2 (Go panic)", dump.Evidence.ExitCode)
	}
	if st := pool.Stats(); st.Crashed < 2 || st.RestartBackoffs < 1 {
		t.Errorf("pool stats = %+v, want >=2 crashes and a restart backoff", st)
	}
}

// TestWorkerOOMIsCrisp: a point whose live heap exceeds the worker
// memory limit must come back as a distinguishable OOM — not a hang,
// not a generic crash.
func TestWorkerOOMIsCrisp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	pool := testWorkerPool(t, WorkerPoolConfig{
		Workers:  1,
		MemLimit: 64 << 20,
		ChaosJob: func(*PointPayload, string) string { return "alloc" },
	})
	pts := []SweepPoint{portablePoint(t, 31, 300)}
	outs, err := Supervise(context.Background(), SuperviseConfig{Dir: dir, Exec: pool}, pts)
	if err == nil {
		t.Fatal("Supervise succeeded despite an OOMing worker")
	}
	o := outs[0]
	if !o.Panicked || o.CrashDump == "" {
		t.Fatalf("outcome = %+v, want Panicked with a crash dump", o)
	}
	var dump CrashDump
	blob, _ := os.ReadFile(o.CrashDump)
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("crash dump not JSON: %v", err)
	}
	if !strings.Contains(dump.Panic, "memory limit") {
		t.Errorf("dump panic = %q, want a memory-limit reason", dump.Panic)
	}
	if dump.Evidence == nil || dump.Evidence.HeapAlloc == 0 || dump.Evidence.GoMemLimit != 64<<20 {
		t.Errorf("dump evidence = %+v, want child heap accounting and the 64MiB limit", dump.Evidence)
	}
	if st := pool.Stats(); st.OOM < 1 {
		t.Errorf("pool stats = %+v, want an OOM", st)
	}
}

// TestWorkerPoolStatsRender: the pool's status line carries every
// lifecycle counter, and a pool that never ran a worker has none.
func TestWorkerPoolStatsRender(t *testing.T) {
	st := WorkerPoolStats{Spawned: 2, Crashed: 1, KilledHeartbeat: 1, KilledDeadline: 1, OOM: 1, RestartBackoffs: 1}
	out := st.Render()
	for _, want := range []string{"workers: 2 spawned", "1 crashed (1 heartbeat kills, 1 deadline kills, 1 oom), 1 restart backoffs"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if idle := (WorkerPoolStats{}).Render(); strings.Contains(idle, "workers:") {
		t.Errorf("idle render shows isolation lines:\n%s", idle)
	}
}

// TestWorkerHeartbeatLossKilled: a worker that stops heartbeating is
// SIGKILLed and the point fails with the heartbeat reason.
func TestWorkerHeartbeatLossKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	pool := testWorkerPool(t, WorkerPoolConfig{
		Workers:         1,
		Heartbeat:       10 * time.Millisecond,
		HeartbeatMisses: 5,
		ChaosJob:        func(*PointPayload, string) string { return "hang" },
	})
	pts := []SweepPoint{portablePoint(t, 41, 300)}
	outs, err := Supervise(context.Background(), SuperviseConfig{Dir: dir, Exec: pool}, pts)
	if err == nil {
		t.Fatal("Supervise succeeded despite a wedged worker")
	}
	o := outs[0]
	if !o.Panicked || o.Err == nil || !strings.Contains(o.Err.Error(), "heartbeat") {
		t.Fatalf("outcome err = %v (Panicked=%v), want a heartbeat-loss failure", o.Err, o.Panicked)
	}
	var dump CrashDump
	blob, _ := os.ReadFile(o.CrashDump)
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("crash dump not JSON: %v", err)
	}
	if dump.Evidence == nil || dump.Evidence.Signal != "killed" {
		t.Errorf("dump evidence = %+v, want signal \"killed\"", dump.Evidence)
	}
	if st := pool.Stats(); st.KilledHeartbeat < 1 {
		t.Errorf("pool stats = %+v, want a heartbeat kill", st)
	}
}

// TestWorkerCancelInterrupts: cancelling a running isolated point asks
// the child to stop; the partial result comes back Interrupted and the
// cancel is not counted as a crash.
func TestWorkerCancelInterrupts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	pool := testWorkerPool(t, WorkerPoolConfig{Workers: 1})
	pt := portablePoint(t, 51, 5_000_000) // far longer than the timeout
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	res, err := pool.Execute(ctx, pt.Payload, pt.Fingerprint)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute err = %v, want deadline exceeded", err)
	}
	if !res.Interrupted {
		t.Error("partial result not marked Interrupted")
	}
	if st := pool.Stats(); st.Crashed != 0 {
		t.Errorf("pool stats = %+v: graceful cancel must not count as a crash", st)
	}
}

// TestWorkerMainProtocol drives WorkerMain in-process over pipes: job
// in, heartbeats and an outcome out, clean exit on EOF.
func TestWorkerMainProtocol(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan int, 1)
	go func() { done <- WorkerMain(inR, outW, io.Discard) }()

	m := topology.New10x10()
	cfg := noc.Config{Mesh: m}
	job := workerJob{
		Fingerprint: "test",
		Point: PointPayload{
			MeshW: m.W, MeshH: m.H, Config: cfg,
			Gen:  GenSpec{Workload: "uniform", Rate: 0.01, Seed: 9},
			Opts: Options{Cycles: 200, DrainCycles: 50000, Rate: 0.01, Seed: 9},
		},
		HeartbeatMS: 5,
	}
	job.Point.Config.Mesh = nil
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := frame.Write(inW, FrameJob, blob); err != nil {
		t.Fatal(err)
	}
	var out workerOutcome
	for {
		kind, payload, err := frame.Read(outR)
		if err != nil {
			t.Fatalf("reading worker frame: %v", err)
		}
		if kind == FrameHeartbeat {
			continue
		}
		if kind != FrameOutcome {
			t.Fatalf("unexpected frame kind %d", kind)
		}
		if err := json.Unmarshal(payload, &out); err != nil {
			t.Fatalf("outcome not JSON: %v", err)
		}
		break
	}
	if out.Err != "" {
		t.Fatalf("worker outcome error: %s", out.Err)
	}
	if _, err := UnmarshalResult(out.Result); err != nil {
		t.Fatalf("worker result does not round-trip: %v", err)
	}
	inW.Close()
	if code := <-done; code != 0 {
		t.Fatalf("WorkerMain exit code = %d, want 0", code)
	}
}
