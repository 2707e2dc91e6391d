package experiments

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/noc"
	"repro/internal/sweepcache"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// freshProfileMemo gives the test an empty profile memo, restoring the
// shared one when it ends.
func freshProfileMemo(t *testing.T) {
	prev := profileMemo
	profileMemo = sweepcache.New(16)
	t.Cleanup(func() { profileMemo = prev })
}

func TestProfileMemoHitEqualsDirect(t *testing.T) {
	freshProfileMemo(t)
	m := topology.New10x10()
	// x264 at this rate and length leaves some routers silent, so the
	// matrix has nil rows as well as full ones.
	spec := GenSpec{Workload: "x264", Rate: 0.002, Seed: 3}
	want := traffic.FrequencyMatrix(spec.mustBuild(m), m.N(), 500)
	var nilRows int
	for _, row := range want {
		if row == nil {
			nilRows++
		}
	}
	if nilRows == 0 || nilRows == m.N() {
		t.Fatalf("fixture has %d nil rows of %d, want some but not all", nilRows, m.N())
	}
	for i := 0; i < 2; i++ {
		got, err := memoProfile(m, spec, 500)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: memoized matrix differs from FrequencyMatrix", i)
		}
		got[0] = nil // the next call must not see this
	}
	if s := profileMemo.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("memo stats %+v, want 1 miss then 1 hit", s)
	}
}

// TestProfileMemoSingleFlight: concurrent compiles of one adaptive
// point, as concurrent POSTs make, profile it once and all get the same
// matrix, each their own copy.
func TestProfileMemoSingleFlight(t *testing.T) {
	freshProfileMemo(t)
	m := topology.New10x10()
	spec := GenSpec{Workload: "hotbidf", Rate: 0.02, Seed: 11}
	const callers = 8
	got := make([][][]int64, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			freq, err := memoProfile(m, spec, 2000)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = freq
			freq[0] = nil // must not reach another caller
		}(i)
	}
	close(start)
	wg.Wait()
	if s := profileMemo.Stats(); s.Misses != 1 || s.Hits+s.Joins != callers-1 {
		t.Errorf("memo stats %+v, want 1 miss and %d hits or joins", s, callers-1)
	}
	want := traffic.FrequencyMatrix(spec.mustBuild(m), m.N(), 2000)
	want[0] = nil
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("caller %d got a different matrix", i)
		}
	}
}

// TestProfileMemoKeyCoversInputs: every input of the profile is in the
// key, and the multicast augmentation, which the profile drops, is not.
func TestProfileMemoKeyCoversInputs(t *testing.T) {
	freshProfileMemo(t)
	m := topology.New10x10()
	// 100 RF routers is the one placement every mesh size has.
	d := Design{Kind: Adaptive, Width: tech.Width4B, RFRouters: 100}
	base := GenSpec{Workload: "hotbidf", Rate: 0.02, Seed: 7}
	build := func(m *topology.Mesh, g GenSpec, cycles int64) noc.Config {
		t.Helper()
		cfg, err := BuildSpec(m, Point{Design: d, Gen: g}, cycles)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	want := build(m, base, 3000)

	multicast := base
	multicast.Multicast, multicast.MulticastRate, multicast.MulticastLocality = true, 0.05, 50
	for _, c := range []struct {
		name   string
		mesh   *topology.Mesh
		gen    GenSpec
		cycles int64
		hit    bool
	}{
		{"workload", m, GenSpec{Workload: "2hotspot", Rate: base.Rate, Seed: base.Seed}, 3000, false},
		{"rate", m, GenSpec{Workload: base.Workload, Rate: 0.03, Seed: base.Seed}, 3000, false},
		{"seed", m, GenSpec{Workload: base.Workload, Rate: base.Rate, Seed: 8}, 3000, false},
		{"cycles", m, base, 3001, false},
		{"mesh", topology.New(8, 8), base, 3000, false},
		{"multicast augmentation", m, multicast, 3000, true},
		{"same spec", m, base, 3000, true},
	} {
		before := profileMemo.Stats()
		cfg := build(c.mesh, c.gen, c.cycles)
		after := profileMemo.Stats()
		misses, hits := int64(1), int64(0)
		if c.hit {
			misses, hits = 0, 1
		}
		if after.Misses-before.Misses != misses || after.Hits-before.Hits != hits {
			t.Errorf("changing the %s: stats %+v then %+v, want hit %v", c.name, before, after, c.hit)
		}
		if c.hit && !reflect.DeepEqual(cfg, want) {
			t.Errorf("changing the %s: config differs from the first build", c.name)
		}
	}
}

// TestBuildSpecMemoMatchesBuild: the memoized path builds the configuration
// Build does from a fresh generator of the same spec, multicast included.
func TestBuildSpecMemoMatchesBuild(t *testing.T) {
	freshProfileMemo(t)
	m := topology.New10x10()
	gen := GenSpec{Workload: "uniform", Rate: 0.02, Seed: 4, Multicast: true, MulticastRate: 0.05, MulticastLocality: 50}
	for _, d := range []Design{
		{Kind: Baseline, Width: tech.Width16B},
		{Kind: Static, Width: tech.Width8B},
		{Kind: WireStatic, Width: tech.Width4B},
		{Kind: Adaptive, Width: tech.Width4B, RFRouters: 25},
		{Kind: Adaptive, Width: tech.Width4B, Multicast: noc.MulticastRF},
	} {
		got, err := BuildSpec(m, Point{Design: d, Gen: gen}, 2500)
		if err != nil {
			t.Fatal(err)
		}
		if want := Build(m, d, gen.mustBuild(m), 2500); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BuildSpec differs from Build", d.Name())
		}
	}
	if _, err := BuildSpec(m, Point{Design: Design{Kind: Adaptive}, Gen: GenSpec{Workload: "nosuch"}}, 0); err == nil {
		t.Error("BuildSpec of an unknown workload: no error")
	}
}

// TestFiguresProfileEachTraceOnce: Figures 7, 8 and 9 and the Summary
// read the adaptive profiles of the same seven traces, and every plan
// builds through the profile memo, so the four together profile each
// trace exactly once.
func TestFiguresProfileEachTraceOnce(t *testing.T) {
	freshProfileMemo(t)
	m := topology.New10x10()
	opts := Options{Cycles: 200, ProfileCycles: 1000}
	Fig7(m, opts)
	Fig8(m, opts)
	Fig9(m, opts)
	Summary(m, opts)
	if s := profileMemo.Stats(); s.Misses != 7 {
		t.Errorf("profile memo stats %+v, want 7 misses, one per trace", s)
	}
}
