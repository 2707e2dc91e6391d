package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestBadFlagsExit2: malformed flags are rejected with exit code 2 and
// a diagnostic naming the flag.
func TestBadFlagsExit2(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero cycles", []string{"-cycles", "0"}, "-cycles must be positive"},
		{"negative cycles", []string{"-cycles", "-100"}, "-cycles must be positive"},
		{"negative rate", []string{"-rate", "-0.5"}, "-rate must be non-negative"},
		{"unknown format", []string{"-format", "xml"}, `unknown format "xml"`},
		{"unknown artifact", []string{"-artifact", "fig99"}, `unknown artifact "fig99"`},
		{"negative retries", []string{"-supervise", "-retries", "-1"}, "-retries must be non-negative"},
		{"negative workers", []string{"-supervise", "-workers", "-2"}, "-workers must be non-negative"},
		{"crash-dir without supervise", []string{"-crash-dir", "/tmp/x"}, "-crash-dir only makes sense with -supervise"},
		{"resume-dir without supervise", []string{"-resume-dir", "/tmp/x"}, "flag provided but not defined: -resume-dir"},
		{"undefined flag", []string{"-bogus"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBuf bytes.Buffer
			code := realMain(tc.args, io.Discard, &errBuf)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errBuf.String())
			}
			if !strings.Contains(errBuf.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", errBuf.String(), tc.want)
			}
		})
	}
}

// TestSupervisedSweepSmoke runs the supervised grid at a tiny cycle
// budget end to end: all points succeed, the table prints, exit code 0.
func TestSupervisedSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("supervised sweep smoke is not -short")
	}
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	code := realMain([]string{"-supervise", "-cycles", "500",
		"-crash-dir", dir, "-retries", "0"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errBuf.String())
	}
	got := out.String()
	if !strings.Contains(got, "Supervised sweep") {
		t.Errorf("missing table header:\n%s", got)
	}
	for _, id := range []string{"Uniform", "2Hotspot", "BiDF"} {
		if !strings.Contains(got, id) {
			t.Errorf("sweep table missing %q rows:\n%s", id, got)
		}
	}
	if strings.Contains(got, "FAILED") {
		t.Errorf("unexpected failed point:\n%s", got)
	}
}

// TestSupervisedRerunInSameCrashDir: a second supervised sweep in the
// same -crash-dir with a different seed must print exactly what a fresh
// run with that seed prints — nothing a previous run left in the
// directory may stand in for a result.
func TestSupervisedRerunInSameCrashDir(t *testing.T) {
	if testing.Short() {
		t.Skip("supervised sweep smoke is not -short")
	}
	sweep := func(dir, seed string) string {
		t.Helper()
		var out, errBuf bytes.Buffer
		if code := realMain([]string{"-supervise", "-cycles", "500", "-seed", seed,
			"-crash-dir", dir, "-retries", "0"}, &out, &errBuf); code != 0 {
			t.Fatalf("seed %s: exit code = %d, stderr: %s", seed, code, errBuf.String())
		}
		return out.String()
	}
	shared := t.TempDir()
	first := sweep(shared, "1")
	second := sweep(shared, "2")
	fresh := sweep(t.TempDir(), "2")
	if first == fresh {
		t.Fatal("seeds 1 and 2 print the same table; the test cannot tell runs apart")
	}
	if second != fresh {
		t.Errorf("rerun in a used crash dir differs from a fresh run:\n--- rerun\n%s\n--- fresh\n%s", second, fresh)
	}
}
