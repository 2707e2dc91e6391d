package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the workloads re-execute the test binary as their
// helper processes, as the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if code, ok := helper(); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// smokeScale runs every workload at 1/50 of its simulated lengths.
const smokeScale = 50

// TestWorkloadsSmoke runs each workload at 1/50 scale for a one-second
// budget, untraced and traced, and checks that every run passes its own
// checks and reports every metric of its kind; untraced runs must report
// no zero end-to-end metric. The service workload builds and launches
// the rfsimd binary, so -short skips it.
func TestWorkloadsSmoke(t *testing.T) {
	rfsimd := ""
	for _, name := range []string{"figures", "long-point", "sweep-short", "service"} {
		t.Run(name, func(t *testing.T) {
			if name == "service" {
				if testing.Short() {
					t.Skip("builds and launches rfsimd")
				}
				rfsimd = buildRfsimd(t)
			}
			for _, traced := range []bool{false, true} {
				e := &env{
					seed:   7,
					budget: time.Second,
					scale:  smokeScale,
					nproc:  runtime.NumCPU(),
					rfsimd: rfsimd,
					dir:    t.TempDir(),
				}
				if traced {
					e.tr = NewTracer()
				}
				res, err := workloads[name](context.Background(), e)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				rec, inf, err := report(name, e, res)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d problems=%q",
						traced, rec.Correct, rec.Attempted, rec.Failed, inf.Problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(rec.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := rec.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v", traced, m.Name, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if traced {
					// Probe times are measured on every workload.
					for _, m := range []string{"noc.step_ns", "noc.new_us", "traffic.tick_ns", "shortcut.select_ms", "experiments.encode_us"} {
						if rec.Metrics[m].Value <= 0 {
							t.Errorf("per-layer %s = %v, want > 0", m, rec.Metrics[m].Value)
						}
					}
					if c := rec.Metrics["bench.span_coverage_frac"].Value; c < 0.95 {
						t.Errorf("named child spans cover %.3f of the workload span, want at least 0.95", c)
					}
				}
			}
		})
	}
	if pids, err := children(); err != nil || len(pids) != 0 {
		t.Errorf("child processes %v left behind (%v)", pids, err)
	}
}

// buildRfsimd compiles the daemon the service workload drives.
func buildRfsimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rfsimd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rfsimd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building rfsimd: %v\n%s", err, out)
	}
	return bin
}
