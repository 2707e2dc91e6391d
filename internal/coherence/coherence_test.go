package coherence

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/topology"
)

func drive(p *Protocol, cycles int64) []noc.Message {
	var msgs []noc.Message
	for now := int64(0); now < cycles; now++ {
		p.Tick(now, func(m noc.Message) { msgs = append(msgs, m) })
	}
	return msgs
}

func TestProtocolEmitsBothMulticastKinds(t *testing.T) {
	m := topology.New10x10()
	p := New(m, Workload{}, 1)
	msgs := drive(p, 20000)
	var inv, fill int
	for _, msg := range msgs {
		if !msg.Multicast {
			continue
		}
		switch msg.Class {
		case noc.Invalidate:
			inv++
		case noc.Fill:
			fill++
		default:
			t.Fatalf("unexpected multicast class %v", msg.Class)
		}
		if m.Kind(msg.Src) != topology.Cache {
			t.Fatalf("multicast from non-cache router %d", msg.Src)
		}
		if msg.DBV == 0 {
			t.Fatal("empty multicast DBV")
		}
	}
	if inv == 0 || fill == 0 {
		t.Errorf("want both invalidates (%d) and multicast fills (%d)", inv, fill)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := topology.New10x10()
	p := New(m, Workload{}, 2)
	p.w.CoalesceWindow = 0 // direct unicast replies for this test
	var msgs []noc.Message
	inject := func(msg noc.Message) { msgs = append(msgs, msg) }
	// Three cores read block 7, then core 5 writes it.
	for _, c := range []int{1, 2, 3} {
		p.read(0, c, 7, inject)
	}
	if got := noc.DBVCount(p.Sharers(7)); got != 3 {
		t.Fatalf("sharers = %d, want 3", got)
	}
	msgs = nil
	p.write(1, 5, 7, inject)
	var inv *noc.Message
	for i := range msgs {
		if msgs[i].Multicast {
			inv = &msgs[i]
		}
	}
	if inv == nil {
		t.Fatal("write to shared block did not multicast invalidates")
	}
	if inv.Class != noc.Invalidate {
		t.Errorf("class = %v, want invalidate", inv.Class)
	}
	if want := uint64(1<<1 | 1<<2 | 1<<3); inv.DBV != want {
		t.Errorf("DBV = %x, want %x", inv.DBV, want)
	}
	if p.Sharers(7) != 1<<5 {
		t.Errorf("after write, sharers = %x, want only core 5", p.Sharers(7))
	}
}

func TestWriterDoesNotInvalidateItself(t *testing.T) {
	m := topology.New10x10()
	p := New(m, Workload{}, 3)
	p.w.CoalesceWindow = 0
	var msgs []noc.Message
	inject := func(msg noc.Message) { msgs = append(msgs, msg) }
	p.read(0, 9, 11, inject)
	msgs = nil
	p.write(1, 9, 11, inject)
	for _, msg := range msgs {
		if msg.Multicast {
			t.Errorf("sole sharer writing should not invalidate (DBV %x)", msg.DBV)
		}
	}
}

func TestCoalescedFillCoversAllReaders(t *testing.T) {
	m := topology.New10x10()
	p := New(m, Workload{CoalesceWindow: 10}, 4)
	var msgs []noc.Message
	inject := func(msg noc.Message) { msgs = append(msgs, msg) }
	for _, c := range []int{10, 20, 30, 40} {
		p.read(0, c, 3, inject)
	}
	p.flushWindows(5, inject) // window not yet expired
	for _, msg := range msgs {
		if msg.Class == noc.Fill {
			t.Fatal("fill sent before window expired")
		}
	}
	p.flushWindows(10, inject)
	var fill *noc.Message
	for i := range msgs {
		if msgs[i].Multicast && msgs[i].Class == noc.Fill {
			fill = &msgs[i]
		}
	}
	if fill == nil {
		t.Fatal("no multicast fill after window expiry")
	}
	want := uint64(1<<10 | 1<<20 | 1<<30 | 1<<40)
	if fill.DBV != want {
		t.Errorf("fill DBV = %x, want %x", fill.DBV, want)
	}
	if p.Sharers(3)&want != want {
		t.Error("readers not recorded as sharers after fill")
	}
}

func TestSingleReaderGetsUnicast(t *testing.T) {
	m := topology.New10x10()
	p := New(m, Workload{CoalesceWindow: 5}, 5)
	var msgs []noc.Message
	inject := func(msg noc.Message) { msgs = append(msgs, msg) }
	p.read(0, 12, 99, inject)
	p.flushWindows(5, inject)
	for _, msg := range msgs {
		if msg.Multicast {
			t.Error("single reader should get a unicast fill")
		}
	}
	if p.stats.UnicastFills != 1 {
		t.Errorf("unicast fills = %d, want 1", p.stats.UnicastFills)
	}
}

func TestHotSetSkew(t *testing.T) {
	m := topology.New10x10()
	p := New(m, Workload{Blocks: 1000, HotBlocks: 10, HotFraction: 0.6}, 6)
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if p.block() < 10 {
			hot++
		}
	}
	frac := float64(hot) / draws
	if frac < 0.55 || frac > 0.65 {
		t.Errorf("hot fraction = %.3f, want ~0.6", frac)
	}
}

func TestDrivesNetworkEndToEnd(t *testing.T) {
	m := topology.New10x10()
	cfg := noc.Config{Mesh: m, Multicast: noc.MulticastRF, RFEnabled: m.RFPlacement(50)}
	n := noc.New(cfg)
	p := New(m, Workload{}, 7)
	for now := int64(0); now < 8000; now++ {
		p.Tick(now, n.Inject)
		n.Step()
	}
	if !n.Drain(200000) {
		t.Fatal("network did not drain under coherence traffic")
	}
	s := n.Stats()
	if s.MulticastMessages == 0 || s.MulticastDeliveries == 0 {
		t.Error("coherence traffic produced no multicast deliveries")
	}
	if s.PacketsEjected == 0 {
		t.Error("no unicast coherence traffic delivered")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

// Property: after any sequence of reads and writes, a block's sharer set
// always contains the last writer and never exceeds the core count.
func TestPropertySharerInvariants(t *testing.T) {
	m := topology.New10x10()
	f := func(ops []uint16) bool {
		p := New(m, Workload{CoalesceWindow: 0}, 8)
		p.w.CoalesceWindow = 0
		lastWriter := -1
		inject := func(noc.Message) {}
		for i, op := range ops {
			core := int(op) % 64
			if op%3 == 0 {
				p.write(int64(i), core, 5, inject)
				lastWriter = core
			} else {
				p.read(int64(i), core, 5, inject)
			}
		}
		if p.Validate() != nil {
			return false
		}
		if lastWriter >= 0 && p.Sharers(5)&(1<<uint(lastWriter)) == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

type taggedMsg struct {
	at  int64
	msg noc.Message
}

func driveTagged(p *Protocol, from, to int64) []taggedMsg {
	var out []taggedMsg
	for now := from; now < to; now++ {
		p.Tick(now, func(m noc.Message) {
			out = append(out, taggedMsg{at: now, msg: m})
		})
	}
	return out
}

// TestProtocolTickDeterministic: two identical protocols must emit
// identical streams — this is what the sorted flushWindows guarantees
// (map-order flushing would diverge between runs).
func TestProtocolTickDeterministic(t *testing.T) {
	m := topology.New10x10()
	w := Workload{ReadRate: 0.02, WriteRate: 0.005, HotBlocks: 8, HotFraction: 0.8, CoalesceWindow: 8}
	a := driveTagged(New(m, w, 7), 0, 400)
	b := driveTagged(New(m, w, 7), 0, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical protocols emitted different streams")
	}
	mc := 0
	for _, tm := range a {
		if tm.msg.Multicast {
			mc++
		}
	}
	if mc == 0 {
		t.Fatal("workload produced no multicasts; determinism check is vacuous")
	}
}
