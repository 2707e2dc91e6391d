package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/topology"
)

// WorkerMain is the entry point of a worker child process (rfsimd
// -worker, or a test binary re-exec'd by TestMain). It reads job frames
// from stdin, runs each point under the job's memory limit while
// heartbeating on stdout, and answers with an outcome frame. It returns
// the process exit code: 0 on clean shutdown (stdin EOF), non-zero on a
// broken pipe or protocol violation — and it never returns at all from
// an OOM self-termination, which exits directly after flushing the OOM
// outcome so the parent learns the reason before the process is gone.
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	w := &workerProc{stdout: stdout, stderr: stderr}

	frames := make(chan wireFrame)
	readErr := make(chan error, 1)
	go func() {
		defer close(frames)
		for {
			kind, payload, err := frame.Read(stdin)
			if err != nil {
				readErr <- err
				return
			}
			frames <- wireFrame{kind, payload}
		}
	}()

	for fr := range frames {
		switch fr.kind {
		case FrameCancel:
			continue // stale cancel for a job that already answered
		case FrameJob:
		default:
			fmt.Fprintf(stderr, "worker: unexpected frame kind %d\n", fr.kind)
			return 1
		}
		var job workerJob
		if err := json.Unmarshal(fr.payload, &job); err != nil {
			fmt.Fprintf(stderr, "worker: malformed job: %v\n", err)
			return 1
		}
		if err := w.runJob(&job, frames); err != nil {
			fmt.Fprintf(stderr, "worker: %v\n", err)
			return 1
		}
	}
	if err := <-readErr; err != io.EOF {
		fmt.Fprintf(stderr, "worker: reading stdin: %v\n", err)
		return 1
	}
	return 0
}

type wireFrame struct {
	kind    byte
	payload []byte
}

type workerProc struct {
	outMu  sync.Mutex
	stdout io.Writer
	stderr io.Writer
}

func (w *workerProc) send(kind byte, payload []byte) error {
	w.outMu.Lock()
	defer w.outMu.Unlock()
	return frame.Write(w.stdout, kind, payload)
}

func (w *workerProc) sendOutcome(o workerOutcome) error {
	blob, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("encoding outcome: %v", err)
	}
	return w.send(FrameOutcome, blob)
}

// runJob executes one job start to outcome. frames delivers any cancel
// frame the parent sends while the job runs; the job watcher drains it
// (the parent never pipelines a second job before the outcome).
func (w *workerProc) runJob(job *workerJob, frames <-chan wireFrame) error {
	if job.MemLimit > 0 {
		debug.SetMemoryLimit(job.MemLimit)
	}
	hb := time.Duration(job.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = 100 * time.Millisecond
	}

	ctx, cancel := context.WithCancel(context.Background())
	jobDone := make(chan struct{})
	var watchers sync.WaitGroup

	// Cancel watcher: a FrameCancel while the job runs cancels its
	// context so RunContext returns the partial, Interrupted result. It
	// keeps draining until the job settles, so a cancel that races the
	// outcome is swallowed here, not misread as a next job.
	watchers.Add(1)
	go func() {
		defer watchers.Done()
		for {
			select {
			case <-jobDone:
				return
			case fr, ok := <-frames:
				if !ok || fr.kind == FrameCancel {
					cancel()
				}
				if !ok {
					return
				}
			}
		}
	}()

	// Heartbeat + OOM self-watch. The Go runtime treats GOMEMLIMIT as a
	// soft limit: the GC fights to stay under it but a workload whose
	// live set exceeds the limit degenerates into a GC death spiral
	// instead of failing. The watch turns that into a crisp, reportable
	// OOM: once the live heap is over the limit the worker sends an OOM
	// outcome with evidence and exits.
	watchers.Add(1)
	go func() {
		defer watchers.Done()
		hbTick := time.NewTicker(hb)
		defer hbTick.Stop()
		memTick := time.NewTicker(10 * time.Millisecond)
		defer memTick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-jobDone:
				return
			case <-hbTick.C:
				if job.Chaos == "hang" {
					continue // simulate a wedged worker: alive but silent
				}
				if w.send(FrameHeartbeat, nil) != nil {
					return // parent is gone; the run's ctx kill follows
				}
			case <-memTick.C:
				if job.MemLimit <= 0 {
					continue
				}
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > uint64(job.MemLimit) {
					w.sendOutcome(workerOutcome{
						Err:      fmt.Sprintf("memory limit exceeded: %d byte heap over %d byte limit", ms.HeapAlloc, job.MemLimit),
						OOM:      true,
						Evidence: captureEvidence(),
					})
					exitProcess(3)
				}
			}
		}
	}()

	out := w.execute(ctx, job)
	close(jobDone)
	cancel()
	watchers.Wait()
	return w.sendOutcome(out)
}

// execute runs the point (or its chaos stand-in) and maps the result to
// an outcome frame.
func (w *workerProc) execute(ctx context.Context, job *workerJob) workerOutcome {
	if job.Chaos != "" {
		runWorkerChaos(job.Chaos)
	}
	cfg := job.Point.Config
	cfg.Mesh = topology.New(job.Point.MeshW, job.Point.MeshH)
	gen, err := job.Point.Gen.Build(cfg.Mesh)
	if err != nil {
		return workerOutcome{Err: err.Error()}
	}
	res, err := RunContext(ctx, cfg, gen, job.Point.Opts, CheckpointSpec{})
	out := workerOutcome{}
	if err == nil || ctx.Err() != nil {
		if blob, merr := MarshalResult(res); merr == nil {
			out.Result = blob
		}
	}
	if err != nil {
		out.Err = err.Error()
		out.Canceled = ctx.Err() != nil && errors.Is(err, ctx.Err())
	}
	return out
}

// runWorkerChaos simulates a hostile point inside the worker. "panic"
// crashes the process the way runtime corruption would; "alloc" grows a
// live heap until the memory watch trips; "hang" wedges without
// heartbeats until the supervisor's SIGKILL arrives.
func runWorkerChaos(kind string) {
	switch kind {
	case "panic":
		panic("worker chaos: injected panic")
	case "alloc":
		var hoard [][]byte
		for {
			block := make([]byte, 1<<20)
			for i := 0; i < len(block); i += 512 {
				block[i] = byte(i) // touch pages so the heap is real
			}
			hoard = append(hoard, block)
			time.Sleep(time.Millisecond)
		}
	case "hang":
		// The heartbeat goroutine also checks for "hang" and goes
		// silent, so the supervisor sees exactly what a livelocked
		// worker looks like: a live process that stopped answering.
		select {}
	}
}

// exitProcess is os.Exit behind a seam (the OOM self-termination path).
var exitProcess = func(code int) { os.Exit(code) }
