package fault

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

func TestFaultParseLinkKill(t *testing.T) {
	e, err := ParseLinkKill("12-13@5000")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if want := (Event{Cycle: 5000, Kind: KillMeshLink, A: 12, B: 13}); e != want {
		t.Errorf("parsed %+v, want %+v", e, want)
	}
	for _, bad := range []string{"", "12-13", "12@5000", "a-b@5", "1-2@-3", "1-2@x"} {
		if _, err := ParseLinkKill(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFaultParseBandKill(t *testing.T) {
	e, err := ParseBandKill("3@5000")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if want := (Event{Cycle: 5000, Kind: KillBand, A: 3}); e != want {
		t.Errorf("parsed %+v, want %+v", e, want)
	}
	for _, bad := range []string{"", "3", "@5", "-1@5", "x@5"} {
		if _, err := ParseBandKill(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// testConfig is a small shortcut design for injector tests.
func testConfig() noc.Config {
	m := topology.New(6, 6)
	return noc.Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 4}),
	}
}

func TestFaultInjectorAppliesAndSkips(t *testing.T) {
	cfg := testConfig()
	sched := Schedule{
		{Cycle: 50, Kind: KillBand, A: 0},
		{Cycle: 60, Kind: KillBand, A: 99},                        // no such band
		{Cycle: 70, Kind: KillShortcut, A: cfg.Shortcuts[0].From}, // already dead
		{Cycle: 80, Kind: KillMeshLink, A: 0, B: 2},               // not adjacent
	}
	inj := NewInjector(sched)
	n := noc.New(cfg)
	n.AttachObserver(inj)
	n.Run(100)

	if got := inj.Applied(); len(got) != 1 || got[0] != sched[0] {
		t.Errorf("applied %v, want [%v]", got, sched[0])
	}
	if got := inj.Skipped(); len(got) != 3 {
		t.Errorf("skipped %d events, want 3: %v", len(got), got)
	}
	if !inj.Done() {
		t.Error("injector not done after all events consumed")
	}
	if got := n.FailedShortcuts(); len(got) != 1 || got[0] != cfg.Shortcuts[0] {
		t.Errorf("failed shortcuts %v, want [%v]", got, cfg.Shortcuts[0])
	}
}

func TestFaultInjectorAutoReplan(t *testing.T) {
	cfg := testConfig()
	dead := cfg.Shortcuts[0]
	inj := NewInjector(Schedule{{Cycle: 200, Kind: KillShortcut, A: dead.From}})
	inj.AutoReplan = true
	rec := obs.NewFaultRecorder()

	n := noc.New(cfg)
	n.AttachObserver(inj)
	n.AttachObserver(rec)

	// Traffic before the kill populates the frequency matrix the replan
	// selects over; after the kill the network drains and the injector
	// must reconfigure exactly once.
	rng := rand.New(rand.NewSource(3))
	N := cfg.Mesh.N()
	for i := 0; i < 400; i++ {
		if rng.Float64() < 0.2 {
			if src, dst := rng.Intn(N), rng.Intn(N); src != dst {
				n.Inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: n.Now()})
			}
		}
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatal("failed to drain")
	}
	// The drain loop's CycleEnd fires with InFlight()==0, triggering the
	// pending replan.
	if inj.Replans() != 1 {
		t.Fatalf("replans = %d, want 1 (skipped: %v)", inj.Replans(), inj.Skipped())
	}
	if got := n.Stats().Reconfigurations; got != 1 {
		t.Errorf("stats count %d reconfigurations, want 1", got)
	}
	if rec.MTTR() <= 0 {
		t.Errorf("recorder MTTR = %v: no Replanned event closed the fault window", rec.MTTR())
	}
	for _, e := range n.Config().Shortcuts {
		if e.From == dead.From {
			t.Errorf("replanned set still transmits from failed router %d", dead.From)
		}
		if e.To == dead.To {
			t.Errorf("replanned set still receives at failed router %d", dead.To)
		}
	}
	if len(n.Config().Shortcuts) == 0 {
		t.Error("replan selected no shortcuts")
	}
}

// FuzzFaultSchedule is the fault-model fuzz target: arbitrary failure
// schedules (band, shortcut and mesh-link kills at arbitrary cycles,
// with an arbitrary corruption rate) must never break exactly-once
// delivery, flit conservation, or draining.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{0, 1, 10})
	f.Add(int64(2), uint16(50), []byte{2, 0, 5, 1, 1, 8, 0, 12, 20})
	f.Add(int64(3), uint16(1000), []byte{1, 3, 0, 1, 3, 1, 2, 255, 255})

	f.Fuzz(func(t *testing.T, seed int64, berRaw uint16, raw []byte) {
		m := topology.New(6, 6)
		cfg := noc.Config{
			Mesh:      m,
			Width:     tech.Width16B,
			Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 4}),
		}
		if berRaw != 0 {
			cfg.Fault = noc.FaultConfig{
				MeshBER: float64(berRaw%100) / 2000,  // up to ~5%
				RFBER:   float64(berRaw%1000) / 5000, // up to 20%
				Seed:    seed,
			}
		}

		// Decode byte triples (kind, victim, cycle) into a schedule.
		var sched Schedule
		for i := 0; i+2 < len(raw) && len(sched) < 12; i += 3 {
			cycle := int64(raw[i+2]) * 8
			switch raw[i] % 3 {
			case 0:
				sched = append(sched, Event{Cycle: cycle, Kind: KillBand, A: int(raw[i+1]) % (len(cfg.Shortcuts) + 1)})
			case 1:
				sched = append(sched, Event{Cycle: cycle, Kind: KillShortcut, A: int(raw[i+1]) % m.N()})
			case 2:
				r := int(raw[i+1]) % m.N()
				c := m.Coord(r)
				if c.X+1 < m.W {
					sched = append(sched, Event{Cycle: cycle, Kind: KillMeshLink, A: r, B: m.ID(c.X+1, c.Y)})
				}
			}
		}

		inj := NewInjector(sched)
		chk := obs.NewInvariantChecker()
		chk.Every = 64
		chk.Fail = func(format string, args ...any) { t.Fatalf(format, args...) }

		n := noc.New(cfg)
		n.AttachObserver(inj)
		n.AttachObserver(chk)

		rng := rand.New(rand.NewSource(seed))
		injected := 0
		delivered := map[[3]int64]int{}
		tap := deliveryCounter{delivered: delivered}
		n.AttachObserver(&tap)
		seen := map[[3]int64]bool{}
		for i := 0; i < 2200; i++ {
			if rng.Float64() < 0.25 {
				src, dst := rng.Intn(m.N()), rng.Intn(m.N())
				if src != dst {
					k := [3]int64{n.Now(), int64(src), int64(dst)}
					if !seen[k] {
						seen[k] = true
						injected++
						n.Inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: n.Now()})
					}
				}
			}
			n.Step()
		}
		if !n.Drain(500000) {
			t.Fatal("failed to drain under fault schedule")
		}
		chk.Check(n)
		if len(delivered) != injected {
			t.Fatalf("delivered %d distinct messages, injected %d", len(delivered), injected)
		}
		for k, c := range delivered {
			if c != 1 {
				t.Fatalf("message %v delivered %d times", k, c)
			}
		}
		if rep := n.Audit(); rep.ConservationError() != 0 || rep.FlitsBuffered != 0 {
			t.Fatalf("drained network not clean: %+v", rep)
		}
	})
}

type deliveryCounter struct {
	noc.BaseObserver
	delivered map[[3]int64]int
}

func (d *deliveryCounter) PacketDelivered(msg noc.Message, _ int64, _ int) {
	d.delivered[[3]int64{msg.Inject, int64(msg.Src), int64(msg.Dst)}]++
}

func TestFaultScheduleStrings(t *testing.T) {
	cases := map[string]Event{
		"12-13@5000":   {Cycle: 5000, Kind: KillMeshLink, A: 12, B: 13},
		"band3@77":     {Cycle: 77, Kind: KillBand, A: 3},
		"shortcut9@10": {Cycle: 10, Kind: KillShortcut, A: 9},
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Errorf("%+v renders %q, want %q", e, got, want)
		}
	}
	for _, k := range []Kind{KillShortcut, KillMeshLink, KillBand} {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

func TestFaultRandomChaosScheduleDeterministic(t *testing.T) {
	a := RandomChaosSchedule(42, 6, 6, 4, 12, 10000)
	b := RandomChaosSchedule(42, 6, 6, 4, 12, 10000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different chaos schedules")
	}
	if len(a) != 12 {
		t.Fatalf("schedule has %d events, want 12", len(a))
	}
	for i, e := range a {
		if e.Cycle < 1 || e.Cycle > 10000 {
			t.Errorf("event %d cycle out of window: %+v", i, e)
		}
		if i > 0 && a[i-1].Cycle > e.Cycle {
			t.Error("chaos schedule not cycle-ordered")
		}
		switch e.Kind {
		case KillMeshLink:
			if e.A < 0 || e.A >= 36 || e.B < 0 || e.B >= 36 {
				t.Errorf("event %d targets off-mesh routers: %+v", i, e)
			}
		case KillBand:
			if e.A < 0 || e.A >= 4 {
				t.Errorf("event %d targets unknown band: %+v", i, e)
			}
		default:
			t.Errorf("event %d has unexpected kind %v", i, e.Kind)
		}
	}
	// With no bands, every event is a mesh-link kill.
	for _, e := range RandomChaosSchedule(7, 6, 6, 0, 20, 5000) {
		if e.Kind == KillBand {
			t.Fatalf("bandless mesh drew a band kill: %+v", e)
		}
	}
	if got := RandomChaosSchedule(1, 6, 6, 2, 0, 100); got != nil {
		t.Errorf("zero events should yield nil, got %v", got)
	}
}
