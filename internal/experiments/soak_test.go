package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Healthy random specs must validate, run, drain and close the
// exactly-once ledger.
func TestSoakRandomSpecsHealthy(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		spec := RandomSoakSpec(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: invalid spec: %v", seed, err)
		}
		res, err := RunSoakSpec(context.Background(), spec)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if err := CheckSoak(res); err != nil {
			t.Fatalf("seed %d: unhealthy: %v", seed, err)
		}
		if res.Stats.PacketsInjected == 0 {
			t.Fatalf("seed %d: no traffic injected", seed)
		}
	}
}

// Spec generation must be a pure function of the seed.
func TestSoakRandomSpecDeterministic(t *testing.T) {
	t.Parallel()
	a, b := RandomSoakSpec(99), RandomSoakSpec(99)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different specs:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(RandomSoakSpec(99), RandomSoakSpec(100)) {
		t.Fatal("different seeds produced identical specs")
	}
}

func TestSoakSpecValidate(t *testing.T) {
	t.Parallel()
	good := RandomSoakSpec(3)
	cases := []struct {
		name string
		mut  func(*SoakSpec)
	}{
		{"odd mesh", func(s *SoakSpec) { s.MeshW = 7 }},
		{"tiny mesh", func(s *SoakSpec) { s.MeshW, s.MeshH = 4, 4 }},
		{"bad width", func(s *SoakSpec) { s.WidthBytes = 5 }},
		{"bad pattern", func(s *SoakSpec) { s.Pattern = "nope" }},
		{"zero rate", func(s *SoakSpec) { s.Rate = 0 }},
		{"rate > 1", func(s *SoakSpec) { s.Rate = 1.5 }},
		{"zero cycles", func(s *SoakSpec) { s.Cycles = 0 }},
		{"bad fault rate", func(s *SoakSpec) { s.Fault.MeshBER = 2 }},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	for _, tc := range cases {
		s := good
		tc.mut(&s)
		if s.Validate() == nil {
			t.Errorf("%s: Validate accepted a broken spec", tc.name)
		}
	}
}

// The full failure path: a sabotaged run trips the invariant checker,
// the soak marks it failed, the shrinker minimizes it, the repro JSON
// round-trips, and replaying the repro still fails.
func TestSoakSabotageShrinkReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	spec := RandomSoakSpec(7)
	spec.Sabotage = true
	reason := soakFailure(ctx, spec)
	if reason == "" {
		t.Fatal("sabotaged run reported healthy")
	}
	if !strings.Contains(reason, "conservation") {
		t.Fatalf("unexpected failure reason: %s", reason)
	}

	shrunk, why, attempts := ShrinkSoak(ctx, spec, reason, 24)
	if why == "" {
		t.Fatal("shrinker lost the failure")
	}
	if attempts == 0 {
		t.Fatal("shrinker made no attempts on a shrinkable spec")
	}
	if !shrunk.Sabotage {
		t.Fatal("shrinker dropped the sabotage flag (the failure cause)")
	}
	if !specSmaller(shrunk, spec) {
		t.Fatalf("shrinker failed to reduce the spec at all: %+v", shrunk)
	}

	path := filepath.Join(dir, "sabotage.repro.json")
	rep := SoakRepro{Spec: shrunk, Reason: why, Original: reason, Shrunk: true, Attempts: attempts}
	if err := WriteSoakRepro(path, rep); err != nil {
		t.Fatalf("write repro: %v", err)
	}
	loaded, err := LoadSoakRepro(path)
	if err != nil {
		t.Fatalf("load repro: %v", err)
	}
	if !reflect.DeepEqual(loaded.Spec, shrunk) {
		t.Fatalf("repro spec did not round-trip:\n%+v\n%+v", loaded.Spec, shrunk)
	}
	if replay := ReplaySoak(ctx, loaded); replay == "" {
		t.Fatal("replaying the shrunken repro no longer fails")
	}
}

// A supervised soak run whose invariant checker fires is a panicked
// point with a crash dump that records the network's cycle and audit,
// as for any other simulation panic.
func TestSoakPanicWritesCrashDump(t *testing.T) {
	dir := t.TempDir()
	spec := RandomSoakSpec(3)
	spec.Sabotage = true
	pt := SweepPoint{
		ID: "sabotaged",
		Run: func(ctx context.Context, _ CheckpointSpec) (Result, error) {
			return RunSoakSpec(ctx, spec)
		},
	}
	outs, err := Supervise(context.Background(), SuperviseConfig{Workers: 1, Dir: dir}, []SweepPoint{pt})
	if err == nil {
		t.Fatal("a sabotaged soak run succeeded")
	}
	out := outs[0]
	if !out.Panicked || out.CrashDump == "" {
		t.Fatalf("panicked=%v dump=%q err=%v, want a panicked point with a crash dump", out.Panicked, out.CrashDump, out.Err)
	}
	blob, err := os.ReadFile(out.CrashDump)
	if err != nil {
		t.Fatal(err)
	}
	var dump CrashDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.Panic, "conservation") {
		t.Errorf("crash dump panic %q does not name the broken invariant", dump.Panic)
	}
	if dump.Cycle < spec.Cycles/2 || dump.Audit == nil {
		t.Errorf("crash dump cycle %d, audit %v; want the network's state after the sabotage at cycle %d",
			dump.Cycle, dump.Audit, spec.Cycles/2)
	}
}

// Soak end-to-end: healthy runs pass; a sabotaged batch fails, and the
// shrunken repro lands in the artifact directory.
func TestSoakEndToEnd(t *testing.T) {
	ctx := context.Background()
	if _, err := Soak(ctx, SoakConfig{Runs: 2, Seed: 11}); err != nil {
		t.Fatalf("healthy soak failed: %v", err)
	}
}

// Shrink candidates must never include invalid specs after filtering,
// and shrinking a healthy spec must keep the original.
func TestShrinkSoakHealthyNoop(t *testing.T) {
	t.Parallel()
	spec := RandomSoakSpec(5)
	got, reason, _ := ShrinkSoak(context.Background(), spec, "synthetic", 8)
	if reason != "synthetic" {
		t.Fatalf("healthy spec grew a new failure: %s", reason)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("healthy spec was mutated:\n%+v\n%+v", got, spec)
	}
}

func TestCheckSoakVerdicts(t *testing.T) {
	t.Parallel()
	var res Result
	res.Drained = true
	res.Stats.PacketsInjected = 10
	res.Stats.PacketsEjected = 9
	res.Stats.PacketsLost = 1
	if err := CheckSoak(res); err != nil {
		t.Fatalf("balanced ledger flagged: %v", err)
	}
	res.Stats.PacketsLost = 0
	if err := CheckSoak(res); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("want ledger error, got %v", err)
	}
	res.Drained = false
	res.Drain.Stranded = 1
	if err := CheckSoak(res); err == nil || !strings.Contains(err.Error(), "drain") {
		t.Fatalf("want drain error, got %v", err)
	}
}
