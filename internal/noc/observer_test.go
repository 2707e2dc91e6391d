package noc

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tech"
	"repro/internal/topology"
)

// countingObserver tallies the events that mirror a Stats counter.
type countingObserver struct {
	BaseObserver
	sent, ejected, delivered, mcast, cycles int64
	flitLatSum                              int64
	localSent                               int64
}

func (c *countingObserver) FlitSent(_, outPort int, _ int64) {
	c.sent++
	if outPort == portLocal {
		c.localSent++
	}
}
func (c *countingObserver) FlitEjected(_ int, lat int64) {
	c.ejected++
	c.flitLatSum += lat
}
func (c *countingObserver) PacketDelivered(Message, int64, int) { c.delivered++ }
func (c *countingObserver) MulticastDelivered(Message, int64)   { c.mcast++ }
func (c *countingObserver) CycleEnd(*Network)                   { c.cycles++ }

// runRandom drives n with uniform unicast traffic for cycles and drains.
func runRandom(t *testing.T, n *Network, cycles int, rate float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < cycles; i++ {
		if rng.Float64() < rate {
			src, dst := rng.Intn(n.cfg.Mesh.N()), rng.Intn(n.cfg.Mesh.N())
			if src != dst {
				n.Inject(Message{Src: src, Dst: dst, Class: Data, Inject: n.Now()})
			}
		}
		n.Step()
	}
	if !n.Drain(500000) {
		t.Fatal("network failed to drain")
	}
}

// Observer event counts must agree with the Stats counters the events
// mirror.
func TestObserverEventsMatchStats(t *testing.T) {
	n := New(Config{Mesh: topology.New10x10(), Width: tech.Width8B})
	c := &countingObserver{}
	n.AttachObserver(c)
	runRandom(t, n, 5000, 0.5, 42)
	s := n.Stats()

	if c.delivered != s.PacketsEjected {
		t.Errorf("PacketDelivered events = %d, stats.PacketsEjected = %d", c.delivered, s.PacketsEjected)
	}
	if c.sent != s.RouterTraversals {
		t.Errorf("FlitSent events = %d, stats.RouterTraversals = %d", c.sent, s.RouterTraversals)
	}
	if c.ejected != s.FlitsEjected {
		t.Errorf("FlitEjected events = %d, stats.FlitsEjected = %d", c.ejected, s.FlitsEjected)
	}
	if c.localSent != s.FlitsEjected {
		t.Errorf("local-port FlitSent events = %d, stats.FlitsEjected = %d", c.localSent, s.FlitsEjected)
	}
	if c.flitLatSum != s.FlitLatency {
		t.Errorf("FlitEjected latency sum = %d, stats.FlitLatency = %d", c.flitLatSum, s.FlitLatency)
	}
	if c.cycles != s.Cycles {
		t.Errorf("CycleEnd events = %d, stats.Cycles = %d", c.cycles, s.Cycles)
	}
	if c.mcast != 0 {
		t.Errorf("unexpected MulticastDelivered events: %d", c.mcast)
	}
}

// Multicast deliveries must fire MulticastDelivered once per served
// destination, under every delivery mode.
func TestObserverMulticastEvents(t *testing.T) {
	for _, mode := range []MulticastMode{MulticastExpand, MulticastVCT, MulticastRF} {
		t.Run(mode.String(), func(t *testing.T) {
			m := topology.New10x10()
			n := New(Config{Mesh: m, Multicast: mode, RFEnabled: m.RFPlacement(50)})
			c := &countingObserver{}
			n.AttachObserver(c)
			src := m.Caches()[0]
			var dbv uint64 = 0b1011 // cores 0, 1, 3
			n.Inject(Message{Src: src, Multicast: true, DBV: dbv, Class: Invalidate, Inject: 0})
			if !n.Drain(100000) {
				t.Fatal("drain failed")
			}
			if want := int64(DBVCount(dbv)); c.mcast != want {
				t.Errorf("MulticastDelivered events = %d, want %d", c.mcast, want)
			}
			if c.mcast != n.Stats().MulticastDeliveries {
				t.Errorf("events %d != stats deliveries %d", c.mcast, n.Stats().MulticastDeliveries)
			}
		})
	}
}

// Detaching an observer must stop its events and leave the other
// attached observers receiving theirs.
func TestDeliveryHookReplaceAndDetach(t *testing.T) {
	n := New(Config{Mesh: topology.New10x10()})
	a, b := &countingObserver{}, &countingObserver{}
	n.AttachObserver(a)
	n.AttachObserver(b)
	n.Inject(Message{Src: 0, Dst: 99, Class: Request, Inject: 0})
	if !n.Drain(100000) {
		t.Fatal("drain failed")
	}
	if a.delivered != 1 || b.delivered != 1 {
		t.Errorf("deliveries a=%d b=%d, want 1 and 1", a.delivered, b.delivered)
	}
	n.DetachObserver(a)
	n.Inject(Message{Src: 0, Dst: 99, Class: Request, Inject: n.Now()})
	if !n.Drain(100000) {
		t.Fatal("drain failed")
	}
	if a.delivered != 1 {
		t.Errorf("detached observer still saw events: deliveries=%d", a.delivered)
	}
	if b.delivered != 2 {
		t.Errorf("attached observer deliveries = %d, want 2", b.delivered)
	}
}

// Audit must report exact flit conservation at every cycle of a live
// run, zero credit violations, and an empty report after draining.
func TestAuditConservationEveryCycle(t *testing.T) {
	n := New(Config{Mesh: topology.New10x10(), Width: tech.Width4B, VCsPerClass: 2, BufDepth: 2})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		if rng.Float64() < 0.6 {
			src, dst := rng.Intn(100), rng.Intn(100)
			if src != dst {
				n.Inject(Message{Src: src, Dst: dst, Class: MemLine, Inject: n.Now()})
			}
		}
		n.Step()
		rep := n.Audit()
		if err := rep.ConservationError(); err != 0 {
			t.Fatalf("cycle %d: conservation error %+d (%+v)", n.Now(), err, rep)
		}
		if rep.CreditViolations != 0 {
			t.Fatalf("cycle %d: %d credit violations", n.Now(), rep.CreditViolations)
		}
	}
	if !n.Drain(500000) {
		t.Fatal("drain failed")
	}
	rep := n.Audit()
	if rep.FlitsBuffered != 0 || rep.FlitsOnLinks != 0 || rep.PacketsInFlight != 0 {
		t.Errorf("drained network not empty: %+v", rep)
	}
	if rep.OldestHeadAge != 0 {
		t.Errorf("drained network reports stuck head flit: %+v", rep)
	}
}

// DumpRouter must render occupied state without panicking mid-run.
func TestDumpRouter(t *testing.T) {
	n := New(Config{Mesh: topology.New10x10()})
	n.Inject(Message{Src: 0, Dst: 99, Class: MemLine, Inject: 0})
	n.Run(6)
	dump := n.DumpRouter(0)
	if !strings.Contains(dump, "router 0") {
		t.Errorf("dump missing header: %q", dump)
	}
	if !strings.Contains(dump, "pkt 0->99") {
		t.Errorf("dump missing in-flight packet: %q", dump)
	}
}
