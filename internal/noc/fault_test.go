package noc

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// faultLedger counts per-message deliveries for exactly-once assertions.
type faultLedger struct {
	BaseObserver
	delivered map[[3]int64]int
	dups      int
}

func newFaultLedger() *faultLedger {
	return &faultLedger{delivered: map[[3]int64]int{}}
}

func (l *faultLedger) PacketDelivered(msg Message, _ int64, _ int) {
	k := [3]int64{msg.Inject, int64(msg.Src), int64(msg.Dst)}
	l.delivered[k]++
	if l.delivered[k] > 1 {
		l.dups++
	}
}

// TestFaultTransientRetransmissionDelivery checks that a lossy-but-live
// network (CRC failures repaired by retransmission) still delivers every
// packet exactly once, with no link ever declared dead.
func TestFaultTransientRetransmissionDelivery(t *testing.T) {
	m := topology.New(6, 6)
	cfg := Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 4}),
		Fault:     FaultConfig{MeshBER: 0.02, RFBER: 0.05, Seed: 7},
	}
	n := New(cfg)
	ledger := newFaultLedger()
	n.AttachObserver(ledger)

	rng := rand.New(rand.NewSource(42))
	injected := map[[3]int64]bool{}
	for i := 0; i < 3000; i++ {
		if rng.Float64() < 0.3 {
			src, dst := rng.Intn(m.N()), rng.Intn(m.N())
			if src != dst {
				k := [3]int64{n.Now(), int64(src), int64(dst)}
				if !injected[k] {
					injected[k] = true
					n.Inject(Message{Src: src, Dst: dst, Class: Data, Inject: n.Now()})
				}
			}
		}
		n.Step()
	}
	if !n.Drain(200000) {
		t.Fatal("lossy network failed to drain")
	}
	s := n.Stats()
	if s.FlitsCorrupted == 0 || s.Retransmits == 0 {
		t.Errorf("expected corruption activity, got corrupted=%d retransmits=%d",
			s.FlitsCorrupted, s.Retransmits)
	}
	if s.LinkFailures != 0 {
		t.Errorf("links died under a low BER: %d failures", s.LinkFailures)
	}
	if ledger.dups != 0 || len(ledger.delivered) != len(injected) {
		t.Errorf("delivery broken: %d distinct (want %d), %d dups",
			len(ledger.delivered), len(injected), ledger.dups)
	}
	if rep := n.Audit(); rep.ConservationError() != 0 || rep.FlitsBuffered != 0 {
		t.Errorf("drained network not clean: %+v", rep)
	}
}

// TestFaultShortcutDiesAfterRetryBudget checks the full recovery chain
// on a band whose every transmission corrupts: retransmissions burn the
// retry budget, the band is declared dead, the in-flight packet falls
// back to the mesh, and delivery still happens.
func TestFaultShortcutDiesAfterRetryBudget(t *testing.T) {
	m := topology.New(6, 6)
	sc := shortcut.Edge{From: 0, To: 35}
	cfg := Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: []shortcut.Edge{sc},
		Fault:     FaultConfig{RFBER: 1.0, Seed: 1},
	}
	n := New(cfg)
	ledger := newFaultLedger()
	n.AttachObserver(ledger)

	n.Inject(Message{Src: 0, Dst: 35, Class: Data, Inject: 0})
	if !n.Drain(20000) {
		t.Fatal("network failed to drain")
	}
	s := n.Stats()
	if s.LinkFailures != 1 {
		t.Fatalf("link failures = %d, want 1", s.LinkFailures)
	}
	if s.DegradedReroutes == 0 {
		t.Error("expected the in-flight packet to be rerouted")
	}
	if got := n.FailedShortcuts(); len(got) != 1 || got[0] != sc {
		t.Errorf("FailedShortcuts = %v, want [%v]", got, sc)
	}
	if tx, _ := n.FailedRFEndpoint(0); !tx {
		t.Error("transmitter at router 0 not marked failed")
	}
	if _, rx := n.FailedRFEndpoint(35); !rx {
		t.Error("receiver at router 35 not marked failed")
	}
	if len(ledger.delivered) != 1 || ledger.dups != 0 {
		t.Errorf("delivery broken: %d distinct, %d dups", len(ledger.delivered), ledger.dups)
	}
	// A second packet must route over the mesh without further faults.
	pre := n.Stats().FlitsCorrupted
	n.Inject(Message{Src: 0, Dst: 35, Class: Data, Inject: n.Now()})
	if !n.Drain(20000) {
		t.Fatal("post-failure packet failed to drain")
	}
	if n.Stats().FlitsCorrupted != pre {
		t.Error("dead band still corrupting traffic")
	}
}

// TestFaultKillShortcutErrors checks the declarative kill API's error
// paths.
func TestFaultKillShortcutErrors(t *testing.T) {
	m := topology.New(6, 6)
	cfg := Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: []shortcut.Edge{{From: 1, To: 30}},
	}
	n := New(cfg)
	if err := n.KillShortcut(-1); err == nil || !strings.Contains(err.Error(), "unknown router index") {
		t.Errorf("out-of-range kill: %v", err)
	}
	if err := n.KillShortcut(5); err == nil || !strings.Contains(err.Error(), "no outbound shortcut") {
		t.Errorf("no-shortcut kill: %v", err)
	}
	if err := n.KillShortcut(1); err != nil {
		t.Fatalf("valid kill failed: %v", err)
	}
	if err := n.KillShortcut(1); err == nil || !strings.Contains(err.Error(), "already failed") {
		t.Errorf("double kill: %v", err)
	}
}

// TestFaultKillMeshLinkRefusesDisconnect checks adjacency validation and
// the connectivity guard: a kill that would disconnect the mesh is
// rejected, because degraded routing can only guarantee delivery while a
// fallback path exists.
func TestFaultKillMeshLinkRefusesDisconnect(t *testing.T) {
	// 6x6 mesh: router 0 is the corner with exactly two links, to 1
	// (east) and 6 (north). Killing both would isolate it.
	m := topology.New(6, 6)
	n := New(Config{Mesh: m, Width: tech.Width16B})
	if err := n.KillMeshLink(0, 7); err == nil || !strings.Contains(err.Error(), "not adjacent") {
		t.Errorf("non-adjacent kill: %v", err)
	}
	if err := n.KillMeshLink(0, 99); err == nil || !strings.Contains(err.Error(), "unknown router index") {
		t.Errorf("out-of-range kill: %v", err)
	}
	if err := n.KillMeshLink(0, 1); err != nil {
		t.Fatalf("first kill failed: %v", err)
	}
	if err := n.KillMeshLink(0, 6); err == nil || !strings.Contains(err.Error(), "disconnect") {
		t.Errorf("disconnecting kill not refused: %v", err)
	}
	if got := n.DeadMeshLinks(); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Errorf("DeadMeshLinks = %v, want [[0 1]]", got)
	}
}

// TestFaultMeshLinkDeathDegradedDelivery kills mesh links mid-run and
// checks that tree-escape routing keeps delivering everything exactly
// once on the wounded mesh.
func TestFaultMeshLinkDeathDegradedDelivery(t *testing.T) {
	m := topology.New(6, 6)
	cfg := Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 3}),
	}
	n := New(cfg)
	ledger := newFaultLedger()
	n.AttachObserver(ledger)

	kills := [][2]int{{0, 1}, {7, 8}, {14, 20}}
	rng := rand.New(rand.NewSource(9))
	injected := map[[3]int64]bool{}
	for i := 0; i < 4000; i++ {
		if i == 500 || i == 1000 || i == 1500 {
			k := kills[i/500-1]
			if err := n.KillMeshLink(k[0], k[1]); err != nil {
				t.Fatalf("kill %v: %v", k, err)
			}
		}
		if rng.Float64() < 0.3 {
			src, dst := rng.Intn(m.N()), rng.Intn(m.N())
			if src != dst {
				key := [3]int64{n.Now(), int64(src), int64(dst)}
				if !injected[key] {
					injected[key] = true
					n.Inject(Message{Src: src, Dst: dst, Class: Data, Inject: n.Now()})
				}
			}
		}
		n.Step()
	}
	if !n.Drain(500000) {
		t.Fatal("wounded mesh failed to drain")
	}
	if ledger.dups != 0 || len(ledger.delivered) != len(injected) {
		t.Errorf("delivery broken: %d distinct (want %d), %d dups",
			len(ledger.delivered), len(injected), ledger.dups)
	}
	if got := len(n.DeadMeshLinks()); got != len(kills) {
		t.Errorf("dead mesh links = %d, want %d", got, len(kills))
	}
	if rep := n.Audit(); rep.ConservationError() != 0 || rep.FlitsBuffered != 0 {
		t.Errorf("drained network not clean: %+v", rep)
	}
}

// TestFaultKillAllShortcutsConvergesToBaseline drives identical traffic
// through a shortcut design that loses every band mid-run and through a
// pure mesh, and checks the post-fault steady-state latencies agree: a
// fully degraded overlay IS the baseline.
func TestFaultKillAllShortcutsConvergesToBaseline(t *testing.T) {
	m := topology.New(8, 8)
	edges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 6})

	type event struct {
		cycle    int64
		src, dst int
	}
	rng := rand.New(rand.NewSource(11))
	var schedule []event
	for c := int64(0); c < 9000; c++ {
		if rng.Float64() < 0.4 {
			src, dst := rng.Intn(m.N()), rng.Intn(m.N())
			if src != dst {
				schedule = append(schedule, event{cycle: c, src: src, dst: dst})
			}
		}
	}

	const killAt, measureFrom = 2000, 4000
	run := func(shortcuts []shortcut.Edge, kill bool) float64 {
		n := New(Config{Mesh: m, Width: tech.Width16B, Shortcuts: shortcuts})
		var sum, count int64
		rec := &deliveryTap{from: measureFrom, sum: &sum, count: &count}
		n.AttachObserver(rec)
		i := 0
		for c := int64(0); c < 9000; c++ {
			if kill && c == killAt {
				for _, e := range shortcuts {
					if err := n.KillShortcut(e.From); err != nil {
						t.Fatalf("kill %v: %v", e, err)
					}
				}
			}
			for i < len(schedule) && schedule[i].cycle == c {
				n.Inject(Message{Src: schedule[i].src, Dst: schedule[i].dst, Class: Data, Inject: c})
				i++
			}
			n.Step()
		}
		if !n.Drain(500000) {
			t.Fatal("run failed to drain")
		}
		if count == 0 {
			t.Fatal("no packets measured")
		}
		return float64(sum) / float64(count)
	}

	degraded := run(edges, true)
	baseline := run(nil, false)
	if diff := (degraded - baseline) / baseline; diff > 0.05 || diff < -0.05 {
		t.Errorf("post-fault latency %.2f vs baseline %.2f (%.1f%% apart), want convergence",
			degraded, baseline, diff*100)
	}
}

// deliveryTap averages latency over packets injected at or after `from`.
type deliveryTap struct {
	BaseObserver
	from       int64
	sum, count *int64
}

func (d *deliveryTap) PacketDelivered(msg Message, at int64, _ int) {
	if msg.Inject >= d.from {
		*d.sum += at - msg.Inject
		*d.count++
	}
}

// TestFaultMulticastBandFailover kills the RF multicast band mid-stream
// and checks every multicast — queued, in flight, and future — is still
// delivered to every destination via unicast expansion.
func TestFaultMulticastBandFailover(t *testing.T) {
	m := topology.New10x10()
	cfg := Config{
		Mesh: m, Width: tech.Width16B,
		Multicast: MulticastRF,
		RFEnabled: m.RFPlacement(50),
	}
	n := New(cfg)
	src := m.Caches()[3]
	dbv := uint64(0)
	for ci := 0; ci < 64; ci += 5 {
		dbv |= 1 << uint(ci)
	}
	perMsg := DBVCount(dbv)

	const msgs = 12
	sent := 0
	for c := int64(0); c < 600; c++ {
		if c%50 == 0 && sent < msgs {
			n.Inject(Message{Src: src, Class: Invalidate, Multicast: true, DBV: dbv, Inject: c})
			sent++
		}
		if c == 120 {
			if err := n.KillMulticastBand(); err != nil {
				t.Fatalf("kill band: %v", err)
			}
			if n.MulticastBandAlive() {
				t.Fatal("band still alive after kill")
			}
			if err := n.KillMulticastBand(); err == nil {
				t.Error("double band kill not rejected")
			}
		}
		n.Step()
	}
	if !n.Drain(100000) {
		t.Fatal("failed to drain after band failover")
	}
	s := n.Stats()
	if want := int64(msgs * perMsg); s.MulticastDeliveries != want {
		t.Errorf("multicast deliveries = %d, want %d", s.MulticastDeliveries, want)
	}
	if s.MulticastMessages != msgs {
		t.Errorf("multicast messages = %d, want %d", s.MulticastMessages, msgs)
	}
	if rep := n.Audit(); rep.ConservationError() != 0 {
		t.Errorf("conservation broken: %+v", rep)
	}
}

// TestFaultReconfigureValidation checks that Reconfigure validates the
// whole edge list up front — reporting every violation, including failed
// RF endpoints — and leaves the previous plan running on rejection.
func TestFaultReconfigureValidation(t *testing.T) {
	m := topology.New(6, 6)
	sc := shortcut.Edge{From: 1, To: 30}
	n := New(Config{
		Mesh: m, Width: tech.Width16B,
		Shortcuts: []shortcut.Edge{sc, {From: 4, To: 20}},
	})
	if err := n.KillShortcut(1); err != nil {
		t.Fatalf("kill: %v", err)
	}

	bad := []shortcut.Edge{
		{From: -1, To: 5},  // unknown source index
		{From: 2, To: 99},  // unknown destination index
		{From: 3, To: 3},   // self-loop
		{From: 6, To: 7},   // fine, but From reused below
		{From: 6, To: 8},   // duplicate outbound at 6
		{From: 1, To: 9},   // failed transmitter (router 1)
		{From: 10, To: 30}, // failed receiver (router 30)
	}
	err := n.Reconfigure(bad)
	if err == nil {
		t.Fatal("invalid edge list accepted")
	}
	for _, want := range []string{
		"unknown router index -1",
		"unknown router index 99",
		"self-loop",
		"two outbound shortcuts",
		"transmitter has failed",
		"receiver has failed",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
	// The surviving band of the old plan must still be routable.
	if got := n.Config().Shortcuts; len(got) != 2 {
		t.Fatalf("rejected reconfigure mutated the plan: %v", got)
	}
	n.Inject(Message{Src: 4, Dst: 20, Class: Data, Inject: n.Now()})
	if !n.Drain(10000) {
		t.Fatal("network broken after rejected reconfigure")
	}

	// A valid replan around the failed endpoints installs and fires
	// Replanned.
	rep := &replanTap{}
	n.AttachObserver(rep)
	good := []shortcut.Edge{{From: 2, To: 33}, {From: 4, To: 20}}
	if err := n.Reconfigure(good); err != nil {
		t.Fatalf("valid reconfigure rejected: %v", err)
	}
	if rep.calls != 1 || rep.edges != len(good) {
		t.Errorf("Replanned fired %d times with %d edges, want 1 with %d",
			rep.calls, rep.edges, len(good))
	}
	n.Inject(Message{Src: 2, Dst: 33, Class: Data, Inject: n.Now()})
	if !n.Drain(10000) {
		t.Fatal("network broken after valid reconfigure")
	}
}

type replanTap struct {
	BaseObserver
	calls, edges int
}

func (r *replanTap) Replanned(edges int, _ int64) {
	r.calls++
	r.edges = edges
}

// TestFaultBackoffSchedule pins the exponential-backoff curve.
func TestFaultBackoffSchedule(t *testing.T) {
	want := []int64{4, 8, 16, 32, 64, 128, 256, 256, 256}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// soakTraffic injects random unicast traffic for cycles steps and
// returns the per-message injection ledger.
func soakTraffic(n *Network, m *topology.Mesh, seed int64, cycles int, rate float64, mid func(*Network, int)) map[[3]int64]bool {
	rng := rand.New(rand.NewSource(seed))
	injected := map[[3]int64]bool{}
	for i := 0; i < cycles; i++ {
		if mid != nil {
			mid(n, i)
		}
		if rng.Float64() < rate {
			src, dst := rng.Intn(m.N()), rng.Intn(m.N())
			if src != dst {
				k := [3]int64{n.Now(), int64(src), int64(dst)}
				if !injected[k] {
					injected[k] = true
					n.Inject(Message{Src: src, Dst: dst, Class: Data, Inject: n.Now()})
				}
			}
		}
		n.Step()
	}
	return injected
}

// assertExactlyOnce checks the end-to-end ledger after a drained run:
// every injected message was delivered exactly once or explicitly
// abandoned, and the flit conservation identity holds.
func assertExactlyOnce(t *testing.T, n *Network, ledger *faultLedger, injected map[[3]int64]bool) {
	t.Helper()
	s := n.Stats()
	if ledger.dups != 0 {
		t.Errorf("duplicate deliveries: %d", ledger.dups)
	}
	if got, want := int64(len(ledger.delivered))+s.PacketsLost, int64(len(injected)); got != want {
		t.Errorf("delivery ledger broken: %d delivered + %d lost != %d injected",
			len(ledger.delivered), s.PacketsLost, want)
	}
	if s.PacketsInjected != s.PacketsEjected+s.PacketsLost {
		t.Errorf("stats ledger broken: injected %d != ejected %d + lost %d",
			s.PacketsInjected, s.PacketsEjected, s.PacketsLost)
	}
	rep := n.Audit()
	if err := rep.ConservationError(); err != 0 {
		t.Errorf("flit conservation broken: %+d (%+v)", err, rep)
	}
	if rep.FlitsBuffered != 0 {
		t.Errorf("drained network still buffers %d flits", rep.FlitsBuffered)
	}
}

// exactlyOnceConfig returns a 6×6 mesh with a four-band RF overlay
// under the given fault model.
func exactlyOnceConfig(m *topology.Mesh, fault FaultConfig) Config {
	return Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 4}),
		Fault:     fault,
	}
}

// TestPropertyExactlyOnceUnderFaultModes: under flit corruption on the
// mesh links or on the RF bands, every injected packet is delivered
// exactly once, and flit conservation survives whatever retransmission
// and link death the corruption caused.
func TestPropertyExactlyOnceUnderFaultModes(t *testing.T) {
	t.Parallel()
	modes := []struct {
		name  string
		fault FaultConfig
	}{
		{"mesh-ber", FaultConfig{MeshBER: 2e-3, Seed: 3}},
		{"rf-ber", FaultConfig{RFBER: 2e-2, Seed: 5}},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			m := topology.New(6, 6)
			n := New(exactlyOnceConfig(m, mode.fault))
			ledger := newFaultLedger()
			n.AttachObserver(ledger)
			injected := soakTraffic(n, m, 21, 6000, 0.4, nil)
			if !n.Drain(200_000) {
				rep := n.Audit()
				t.Fatalf("network wedged: %d in flight, oldest head %d cycles\n%s",
					n.InFlight(), rep.OldestHeadAge, n.DumpRouter(rep.OldestRouter))
			}
			if n.Stats().FlitsCorrupted == 0 {
				t.Fatalf("fault mode %s never fired — rate too low for the test to mean anything", mode.name)
			}
			assertExactlyOnce(t, n, ledger, injected)
		})
	}
}

// TestPropertyExactlyOnceBERAndBandKill combines flit corruption with
// deterministic band kills mid-run — the RF overlay degrades while
// senders are retransmitting — and requires the exactly-once ledger to
// survive.
func TestPropertyExactlyOnceBERAndBandKill(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	cfg := exactlyOnceConfig(m, FaultConfig{MeshBER: 1e-3, RFBER: 1e-2, RetryLimit: 6, Seed: 13})
	n := New(cfg)
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	bands := n.Config().Shortcuts
	if len(bands) < 2 {
		t.Fatalf("want >= 2 bands for the kill schedule, got %d", len(bands))
	}
	injected := soakTraffic(n, m, 51, 6000, 0.4, func(n *Network, i int) {
		switch i {
		case 2000:
			if err := n.KillShortcut(bands[0].From); err != nil {
				t.Fatalf("KillShortcut(%d): %v", bands[0].From, err)
			}
		case 3500:
			if err := n.KillShortcut(bands[1].From); err != nil {
				t.Fatalf("KillShortcut(%d): %v", bands[1].From, err)
			}
		}
	})
	if !n.Drain(200_000) {
		t.Fatalf("network wedged: %d in flight", n.InFlight())
	}
	s := n.Stats()
	if s.FlitsCorrupted == 0 {
		t.Fatal("corruption never fired")
	}
	if s.LinkFailures < 2 {
		t.Fatalf("band kills not registered: %d link failures", s.LinkFailures)
	}
	assertExactlyOnce(t, n, ledger, injected)
}
