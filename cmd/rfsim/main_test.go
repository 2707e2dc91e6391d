package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
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
		{"negative soak", []string{"-soak", "-1"}, "-soak must be non-negative"},
		{"negative shrink budget", []string{"-shrink-budget", "-2"}, "-shrink-budget must be non-negative"},
		{"soak with shrink", []string{"-soak", "1", "-shrink", "x.json"}, "mutually exclusive"},
		{"missing repro file", []string{"-shrink", "/no/such/repro.json"}, "no such file"},
		{"removed checkpoint", []string{"-checkpoint", "x.ckpt"}, "flag provided but not defined: -checkpoint"},
		{"negative checkpoint-every", []string{"-checkpoint-every", "-1"}, "flag provided but not defined: -checkpoint-every"},
		{"resume without checkpoint", []string{"-resume"}, "flag provided but not defined: -resume"},
		{"misroute rate above one", []string{"-misroute-rate", "2"}, "flag provided but not defined: -misroute-rate"},
		{"misdeliver sans integrity", []string{"-misdeliver-rate", "0.1"}, "flag provided but not defined: -misdeliver-rate"},
		{"duplicate sans integrity", []string{"-duplicate-rate", "0.1"}, "flag provided but not defined: -duplicate-rate"},
		{"malformed leak-credit", []string{"-leak-credit", "zap"}, "flag provided but not defined: -leak-credit"},
		{"malformed stick-vc", []string{"-stick-vc", "7@2"}, "flag provided but not defined: -stick-vc"},
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

// TestTimeoutBeforeFirstCycle: a run stopped before its first cycle
// still prints the sections that read the network, from a network in
// its initial state.
func TestTimeoutBeforeFirstCycle(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-cycles", "2000", "-design", "static", "-timeout", "1ns", "-heatmap", "-kill-link", "12-13@500"}
	if code := realMain(args, &out, &errBuf); code != exitInterrupted {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitInterrupted, errBuf.String())
	}
	for _, want := range []string{"cycles:   0 ", "fault/recovery:", "link-load heatmap"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestSelfHealingRunSmoke drives the fault modes through the real entry
// point and pins the fault/recovery section they add to recorded text:
// the first case is the CI band-kill smoke at a test-sized run, the
// second transient link faults plus a mesh-link kill that the injector
// replans around.
func TestSelfHealingRunSmoke(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want map[string]string // section header -> recorded section
	}{
		{"band-kill", []string{"-design", "static", "-workload", "2hotspot", "-cycles", "12000",
			"-kill-band", "0@10000", "-seed", "7"}, map[string]string{
			"fault/recovery:": "corrupted 0, retransmits 0 (rate 0/flit), link failures 1, reroutes 0, replans 0\n" +
				"band availability 0.9894, MTTR 0 cycles\n" +
				"packet latency pre-fault 30.4, post-fault 30.5 (delta +0.1 cycles)\n" +
				"failed shortcuts: 1->89",
		}},
		{"link-faults-replan", []string{"-design", "static", "-cycles", "3000", "-rate", "0.05",
			"-fault-rate", "1e-3", "-kill-band", "0@1000", "-kill-link", "12-13@2000", "-replan", "-seed", "5"}, map[string]string{
			"fault/recovery:": "corrupted 258, retransmits 258 (rate 0.0009769/flit), link failures 2, reroutes 2, replans 1\n" +
				"band availability 0.9538, MTTR 2827 cycles\n" +
				"packet latency pre-fault 46.1, post-fault 65.3 (delta +19.2 cycles)\n" +
				"dead mesh links: 1\n" +
				"failed shortcuts: 1->89\n" +
				"auto-replans: 1",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := realMain(tc.args, &out, io.Discard); code != exitOK {
				t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
			}
			if !strings.Contains(out.String(), "drain:") {
				t.Errorf("report missing drain line:\n%s", out.String())
			}
			for header, want := range tc.want {
				if got := reportSection(out.String(), header); got != want {
					t.Errorf("%s section:\n got %q\nwant %q", header, got, want)
				}
			}
		})
	}
}

// TestHeatmapGolden pins -heatmap's grid and hottest-link lines to
// recorded text, alone and beside a -timeline export, and the
// timeline CSV to its recorded SHA-256.
func TestHeatmapGolden(t *testing.T) {
	const want = "link-load heatmap (bottom row is mesh row 0):\n" +
		". : - : : . : : : . \n" +
		". . . . . . : : . . \n" +
		"  . . . . . . .     \n" +
		"  . . . . . . . .   \n" +
		". . . . . . . . .   \n" +
		". . . . . . . . . . \n" +
		". . . . . . . . .   \n" +
		"    . . . . . .     \n" +
		". . . . . . . . . . \n" +
		". : : : : : : - : . \n" +
		"\n" +
		"hottest links:\n" +
		"  (7,0)->W 0.664 flits/cycle\n" +
		"  (0,0)->L 0.613 flits/cycle\n" +
		"  (2,9)->E 0.607 flits/cycle\n" +
		"  (0,0)->E 0.602 flits/cycle\n" +
		"  (6,0)->W 0.575 flits/cycle\n" +
		"  (1,0)->E 0.542 flits/cycle\n" +
		"  (3,9)->E 0.530 flits/cycle\n" +
		"  (7,0)->E 0.513 flits/cycle\n"
	const wantCSV = "7b5615843c4738863db5673fe886efe26a5aabe875b22c4329cc98a15f76db18"
	args := []string{"-design", "baseline", "-width", "4", "-workload", "2hotspot", "-cycles", "3000", "-seed", "2", "-heatmap"}
	csvPath := filepath.Join(t.TempDir(), "tl.csv")
	for _, extra := range [][]string{nil, {"-timeline", csvPath, "-window", "500"}} {
		var out bytes.Buffer
		if code := realMain(append(args, extra...), &out, io.Discard); code != exitOK {
			t.Fatalf("%v: exit code = %d, want 0\n%s", extra, code, out.String())
		}
		_, got, _ := strings.Cut(out.String(), "\nlink-load heatmap")
		got, _, _ = strings.Cut("link-load heatmap"+got, "\ntimeline: ")
		if got != want {
			t.Errorf("%v: heatmap section:\n got %q\nwant %q", extra, got, want)
		}
	}
	blob, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != wantCSV {
		t.Errorf("timeline CSV (%d bytes) has SHA-256 %x, want %s", len(blob), sum, wantCSV)
	}
}

// reportSection returns the body of an rfsim report section: the lines
// after header up to the next blank line or the shortcut listing ("" if
// the header is absent).
func reportSection(out, header string) string {
	_, rest, ok := strings.Cut(out, "\n"+header+"\n")
	if !ok {
		return ""
	}
	var body []string
	for _, line := range strings.Split(rest, "\n") {
		if line == "" || strings.HasPrefix(line, "shortcuts: ") {
			break
		}
		body = append(body, line)
	}
	return strings.Join(body, "\n")
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
