package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestBadFlagsExit2 is the satellite requirement: every malformed flag
// combination is rejected with exit code 2 and a message naming the
// flag, before any simulation state is built.
func TestBadFlagsExit2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"zero cycles", []string{"-cycles", "0"}, "-cycles must be positive"},
		{"negative cycles", []string{"-cycles", "-5"}, "-cycles must be positive"},
		{"fault rate above one", []string{"-fault-rate", "1.5"}, "-fault-rate must be in [0,1]"},
		{"fault rate negative", []string{"-fault-rate", "-0.1"}, "-fault-rate must be in [0,1]"},
		{"zero window", []string{"-window", "0"}, "-window must be positive"},
		{"unknown design", []string{"-design", "quantum"}, `unknown design "quantum"`},
		{"unknown multicast", []string{"-multicast", "broadcast"}, `unknown multicast mode "broadcast"`},
		{"bad width", []string{"-width", "5"}, "invalid -width 5"},
		{"negative rate", []string{"-rate", "-1"}, "-rate must be non-negative"},
		{"mcrate above one", []string{"-mcrate", "2"}, "-mcrate must be in [0,1]"},
		{"mclocality above 100", []string{"-mclocality", "150"}, "-mclocality must be in [0,100]"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout must be non-negative"},
		{"malformed kill-link", []string{"-kill-link", "nonsense"}, "nonsense"},
		{"malformed kill-band", []string{"-kill-band", "x@y"}, "x@y"},
		{"undefined flag", []string{"-no-such-flag"}, ""},
		{"unknown workload", []string{"-cycles", "10", "-workload", "doom"}, `unknown workload "doom"`},
		{"misroute rate above one", []string{"-misroute-rate", "2"}, "-misroute-rate must be in [0,1]"},
		{"misdeliver sans integrity", []string{"-misdeliver-rate", "0.1"}, "need -integrity"},
		{"duplicate sans integrity", []string{"-duplicate-rate", "0.1"}, "need -integrity"},
		{"malformed leak-credit", []string{"-leak-credit", "zap"}, "zap"},
		{"malformed stick-vc", []string{"-stick-vc", "7@2"}, "7@2"},
		{"negative soak", []string{"-soak", "-1"}, "-soak must be non-negative"},
		{"negative shrink budget", []string{"-shrink-budget", "-2"}, "-shrink-budget must be non-negative"},
		{"soak with shrink", []string{"-soak", "1", "-shrink", "x.json"}, "mutually exclusive"},
		{"missing repro file", []string{"-shrink", "/no/such/repro.json"}, "no such file"},
		{"removed checkpoint", []string{"-checkpoint", "x.ckpt"}, "flag provided but not defined: -checkpoint"},
		{"negative checkpoint-every", []string{"-checkpoint-every", "-1"}, "flag provided but not defined: -checkpoint-every"},
		{"resume without checkpoint", []string{"-resume"}, "flag provided but not defined: -resume"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBuf bytes.Buffer
			code := realMain(tc.args, io.Discard, &errBuf)
			if code != exitBadFlags {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitBadFlags, errBuf.String())
			}
			if !strings.Contains(errBuf.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", errBuf.String(), tc.want)
			}
		})
	}
}

// TestValidateAccumulates: one pass reports every violation, not just
// the first.
func TestValidateAccumulates(t *testing.T) {
	f := simFlags{design: "bogus", multicast: "rf", width: 16, cycles: -1,
		window: 0, faultRate: 3, mcRate: 0.05}
	err := f.validate()
	if err == nil {
		t.Fatal("invalid flags accepted")
	}
	for _, want := range []string{"unknown design", "-cycles", "-window", "-fault-rate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestGoodRunSmoke: a tiny run through the real entry point succeeds,
// and running it again from cycle 0 reproduces the same report.
func TestGoodRunSmoke(t *testing.T) {
	args := []string{"-cycles", "400", "-workload", "uniform", "-design", "static", "-seed", "9"}
	var out1, out2 bytes.Buffer
	if code := realMain(args, &out1, io.Discard); code != exitOK {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(out1.String(), "avg latency") {
		t.Errorf("report missing latency line:\n%s", out1.String())
	}
	if code := realMain(args, &out2, io.Discard); code != exitOK {
		t.Fatalf("rerun exit code = %d, want 0", code)
	}
	if out1.String() != out2.String() {
		t.Errorf("rerun report differs from the first:\n--- first\n%s\n--- rerun\n%s", out1.String(), out2.String())
	}
}

// TestTimeoutExit3: a run that outlives -timeout prints its partial
// results and exits 3.
func TestTimeoutExit3(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-cycles", "50000000", "-design", "static", "-timeout", "50ms"}
	if code := realMain(args, &out, &errBuf); code != exitInterrupted {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitInterrupted, errBuf.String())
	}
	if !strings.Contains(out.String(), "INTERRUPTED") || !strings.Contains(errBuf.String(), "partial results above") {
		t.Errorf("partial report missing:\n%s\n%s", out.String(), errBuf.String())
	}
}

// TestSelfHealingRunSmoke: adversarial fault modes plus integrity and
// the watchdog through the real entry point, with the new report
// sections present.
func TestSelfHealingRunSmoke(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-cycles", "2000", "-design", "static", "-integrity", "-watchdog",
		"-misroute-rate", "0.01", "-duplicate-rate", "0.05", "-misdeliver-rate", "0.05",
		"-leak-credit", "12-13@500", "-stick-vc", "45-0@800", "-seed", "3"}
	if code := realMain(args, &out, io.Discard); code != exitOK {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"integrity/recovery:", "drain:", "fault/recovery:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestSoakAndShrinkSmoke drives -soak through the real entry point and
// then replays a repro with -shrink.
func TestSoakAndShrinkSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if code := realMain([]string{"-soak", "1", "-seed", "11", "-soak-dir", dir}, &out, io.Discard); code != exitOK {
		t.Fatalf("healthy soak exit code = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1/1 runs healthy") {
		t.Errorf("soak summary missing:\n%s", out.String())
	}

	// Write a failing repro by hand (sabotaged spec) and replay it.
	spec := experiments.RandomSoakSpec(7)
	spec.Sabotage = true
	path := filepath.Join(dir, "sab.repro.json")
	if err := experiments.WriteSoakRepro(path, experiments.SoakRepro{Spec: spec, Reason: "seeded"}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := realMain([]string{"-shrink", path}, &out, io.Discard); code != exitRunError {
		t.Fatalf("sabotaged repro replay exit code = %d, want %d\n%s", code, exitRunError, out.String())
	}
	if !strings.Contains(out.String(), "still fails") {
		t.Errorf("replay verdict missing:\n%s", out.String())
	}
}
