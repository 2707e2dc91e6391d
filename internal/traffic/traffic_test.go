package traffic

import (
	"bytes"
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/topology"
)

func collect(g Generator, cycles int64) []noc.Message {
	var out []noc.Message
	for now := int64(0); now < cycles; now++ {
		g.Tick(now, func(m noc.Message) { out = append(out, m) })
	}
	return out
}

func TestProbabilisticRateRoughlyHonored(t *testing.T) {
	m := topology.New10x10()
	g := NewProbabilistic(m, Uniform, 0.01, 1)
	msgs := collect(g, 20000)
	// 96 components x 0.01 transactions/cycle x 20000 cycles, with most
	// transactions emitting 2 messages (request+reply or mem pair):
	// expect within [1x, 2.2x] of the transaction count.
	tx := 96 * 0.01 * 20000
	if float64(len(msgs)) < tx || float64(len(msgs)) > 2.2*tx {
		t.Errorf("got %d messages for ~%.0f transactions", len(msgs), tx)
	}
}

func TestMessagesAreValid(t *testing.T) {
	m := topology.New10x10()
	for _, pat := range Patterns() {
		g := NewProbabilistic(m, pat, 0.02, 2)
		for _, msg := range collect(g, 3000) {
			if msg.Src == msg.Dst {
				t.Fatalf("%v: self message at router %d", pat, msg.Src)
			}
			if msg.Src < 0 || msg.Src >= m.N() || msg.Dst < 0 || msg.Dst >= m.N() {
				t.Fatalf("%v: out of range message %+v", pat, msg)
			}
			// Memory routers only exchange 132B lines with caches.
			sk, dk := m.Kind(msg.Src), m.Kind(msg.Dst)
			if sk == topology.Memory || dk == topology.Memory {
				if msg.Class != noc.MemLine {
					t.Fatalf("%v: memory message with class %v", pat, msg.Class)
				}
				if sk == topology.Memory && dk != topology.Cache ||
					dk == topology.Memory && sk != topology.Cache {
					t.Fatalf("%v: memory talks only to caches, got %v->%v", pat, sk, dk)
				}
			}
		}
	}
}

func TestHotspotTraceConcentratesTraffic(t *testing.T) {
	m := topology.New10x10()
	g := NewProbabilistic(m, Hotspot1, 0.02, 3)
	hot := m.ID(7, 0)
	msgs := collect(g, 10000)
	at := 0
	for _, msg := range msgs {
		if msg.Src == hot || msg.Dst == hot {
			at++
		}
	}
	frac := float64(at) / float64(len(msgs))
	// hotFraction of the non-memory transactions touch the hotspot;
	// replies included. Expect many times the uniform share (~2%).
	if frac < 0.12 {
		t.Errorf("hotspot traffic fraction = %.2f, want >= 0.12", frac)
	}
	// Uniform trace should spread far thinner.
	gu := NewProbabilistic(m, Uniform, 0.02, 3)
	atU := 0
	msgsU := collect(gu, 10000)
	for _, msg := range msgsU {
		if msg.Src == hot || msg.Dst == hot {
			atU++
		}
	}
	if fU := float64(atU) / float64(len(msgsU)); fU > frac/3 {
		t.Errorf("uniform hotspot share %.3f vs hotspot trace %.3f", fU, frac)
	}
}

func TestDataflowLocality(t *testing.T) {
	m := topology.New10x10()
	g := NewProbabilistic(m, UniDF, 0.02, 4)
	local, neighbor, far := 0, 0, 0
	for _, msg := range collect(g, 10000) {
		if msg.Class == noc.MemLine {
			continue
		}
		gs := m.Coord(msg.Src).X / 2
		gd := m.Coord(msg.Dst).X / 2
		switch d := gs - gd; {
		case d == 0:
			local++
		case d == -1 || d == 1:
			neighbor++
		default:
			far++
		}
	}
	tot := local + neighbor + far
	if far > tot/10 {
		t.Errorf("dataflow trace has %d/%d far-group messages", far, tot)
	}
	if local == 0 || neighbor == 0 {
		t.Error("dataflow trace missing local or neighbor traffic")
	}
}

func TestAppProfilesDiffer(t *testing.T) {
	m := topology.New10x10()
	// Figure 1's contrast: bodytrack is single-hop dominated, x264 much
	// less so.
	hist := func(a App) (frac1 float64) {
		g := NewAppTrace(m, a, 0.02, 5)
		var n1, n int
		for _, msg := range collect(g, 15000) {
			if msg.Class == noc.MemLine {
				continue
			}
			if m.Manhattan(msg.Src, msg.Dst) == 1 {
				n1++
			}
			n++
		}
		return float64(n1) / float64(n)
	}
	x, b := hist(X264), hist(Bodytrack)
	if b <= 1.5*x {
		t.Errorf("bodytrack 1-hop fraction (%.2f) should far exceed x264's (%.2f)", b, x)
	}
}

func TestAppHotspots(t *testing.T) {
	m := topology.New10x10()
	g := NewAppTrace(m, Bodytrack, 0.02, 6)
	counts := map[int]int{}
	for _, msg := range collect(g, 15000) {
		counts[msg.Src]++
		counts[msg.Dst]++
	}
	h1, h2 := m.ID(7, 0), m.ID(2, 9)
	avg := 0
	for _, c := range counts {
		avg += c
	}
	avgF := float64(avg) / float64(len(counts))
	if float64(counts[h1]) < 3*avgF || float64(counts[h2]) < 3*avgF {
		t.Errorf("bodytrack hotspots not hot: %d, %d vs avg %.0f", counts[h1], counts[h2], avgF)
	}
}

func TestFrequencyMatrix(t *testing.T) {
	m := topology.New10x10()
	g := NewProbabilistic(m, Hotspot1, 0.02, 7)
	freq := FrequencyMatrix(g, m.N(), 5000)
	hot := m.ID(7, 0)
	var toHot, total int64
	for s := range freq {
		if freq[s] == nil {
			continue
		}
		for d, f := range freq[s] {
			total += f
			if d == hot {
				toHot += f
			}
		}
	}
	if total == 0 {
		t.Fatal("empty frequency matrix")
	}
	if float64(toHot)/float64(total) < 0.04 {
		t.Errorf("hotspot receives %.3f of traffic, want >= 0.04", float64(toHot)/float64(total))
	}
}

func TestGeneratorsDeterministicBySeed(t *testing.T) {
	m := topology.New10x10()
	a := collect(NewProbabilistic(m, BiDF, 0.02, 42), 2000)
	b := collect(NewProbabilistic(m, BiDF, 0.02, 42), 2000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := collect(NewProbabilistic(m, BiDF, 0.02, 43), 2000)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestMulticastLocality(t *testing.T) {
	m := topology.New10x10()
	for _, pct := range []int{20, 50} {
		base := NewProbabilistic(m, Uniform, 0.001, 8)
		a := NewMulticastAugment(m, base, 0.5, pct, 8)
		var mcs int
		for now := int64(0); now < 20000; now++ {
			a.Tick(now, func(msg noc.Message) {
				if msg.Multicast {
					mcs++
					if m.Kind(msg.Src) != topology.Cache {
						t.Fatal("multicast from non-cache")
					}
					if msg.DBV == 0 {
						t.Fatal("empty DBV")
					}
				}
			})
		}
		if mcs == 0 {
			t.Fatal("no multicasts generated")
		}
		got := float64(a.DistinctPairs()) / float64(a.Sent())
		want := float64(pct) / 100
		if math.Abs(got-want) > 0.05 {
			t.Errorf("locality %d%%: distinct fraction = %.3f, want ~%.2f", pct, got, want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	m := topology.New10x10()
	base := NewProbabilistic(m, Hotspot2, 0.01, 9)
	g := NewMulticastAugment(m, base, 0.1, 20, 9)
	var buf bytes.Buffer
	count, err := WriteTrace(&buf, g, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("empty trace written")
	}
	rp, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != count {
		t.Fatalf("read %d records, wrote %d", rp.Len(), count)
	}
	if !strings.Contains(rp.Name(), "2Hotspot") {
		t.Errorf("replay name = %q", rp.Name())
	}
	// Replaying must reproduce the same message stream.
	g2 := NewMulticastAugment(m, NewProbabilistic(m, Hotspot2, 0.01, 9), 0.1, 20, 9)
	orig := collect(g2, 2000)
	replayed := collect(rp, 2000)
	if len(orig) != len(replayed) {
		t.Fatalf("replay length %d != original %d", len(replayed), len(orig))
	}
	for i := range orig {
		o, r := orig[i], replayed[i]
		o.Inject, r.Inject = 0, 0 // Replay re-stamps inject cycles
		if o != r {
			t.Fatalf("record %d differs: %+v vs %+v", i, o, r)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"U 1 2 3\n",              // too few fields
		"X 1 2 3 4\n",            // unknown record
		"U a 2 3 4\n",            // bad cycle
		"M 1 2 zz 4\n",           // bad dbv
		"U 5 1 2 3\nU 4 1 2 3\n", // non-monotonic
	} {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	want := []string{"Uniform", "UniDF", "BiDF", "HotBiDF", "1Hotspot", "2Hotspot", "4Hotspot"}
	for i, p := range Patterns() {
		if p.String() != want[i] {
			t.Errorf("pattern %d = %q, want %q", i, p.String(), want[i])
		}
	}
	if len(Apps()) != 5 {
		t.Error("want 5 application traces")
	}
}

// rowSender is a non-allocating generator: at cycle now it sends one
// unicast message from router now%srcs, and one multicast message.
type rowSender struct{ srcs, n int }

func (rowSender) Name() string { return "rows" }

func (g rowSender) Tick(now int64, inject func(noc.Message)) {
	src := int(now) % g.srcs
	inject(noc.Message{Src: src, Dst: (src + 1 + int(now)) % g.n})
	inject(noc.Message{Src: src, Multicast: true})
}

// TestFrequencyMatrixAllocsPerRow checks that profiling allocates per
// source row, not per cycle: one row per sending router, the outer
// slice, and the one closure that counts messages.
func TestFrequencyMatrixAllocsPerRow(t *testing.T) {
	const srcs, n = 5, 100
	var g Generator = rowSender{srcs: srcs, n: n}
	allocs := testing.AllocsPerRun(10, func() {
		if freq := FrequencyMatrix(g, n, 2000); freq[0] == nil {
			t.Fatal("no traffic counted")
		}
	})
	if allocs > srcs+2 {
		t.Errorf("FrequencyMatrix made %v allocations over 2000 cycles, want at most %d", allocs, srcs+2)
	}
}

// TestFrequencyMatrixIgnoresMulticastAugment pins the equivalence the
// figure runners rely on to profile each trace once: augmenting a trace
// with multicasts leaves its frequency matrix unchanged, because the
// augmentation draws from its own RNG and the profile drops multicasts.
func TestFrequencyMatrixIgnoresMulticastAugment(t *testing.T) {
	m := topology.New10x10()
	const seed, cycles = 1, 20000
	for _, pat := range Patterns() {
		want := FrequencyMatrix(NewProbabilistic(m, pat, DefaultRate, seed), m.N(), cycles)
		for _, loc := range []int{20, 50} {
			base := NewProbabilistic(m, pat, DefaultRate, seed)
			got := FrequencyMatrix(NewMulticastAugment(m, base, 0.05, loc, seed), m.N(), cycles)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s with locality-%d multicasts profiles differently from the plain trace", pat, loc)
			}
		}
	}
}

// refQueue is futureQueue ordered by container/heap, the reference for
// its pop order.
type refQueue []event

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// TestFutureQueueMatchesContainerHeap checks that the typed heap pops
// events in exactly container/heap's order, ties on at included, under
// interleaved pushes and pops.
func TestFutureQueueMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q futureQueue
	var ref refQueue
	for id := 0; id < 20000; id++ {
		if r.Intn(3) > 0 || q.Len() == 0 {
			// A narrow range of at values makes ties common.
			e := event{at: int64(r.Intn(16)), msg: noc.Message{Src: id}}
			q.push(e)
			heap.Push(&ref, e)
			continue
		}
		got, want := q.pop(), heap.Pop(&ref).(event)
		if got != want {
			t.Fatalf("pop %+v, container/heap pops %+v", got, want)
		}
	}
	for q.Len() > 0 {
		if got, want := q.pop(), heap.Pop(&ref).(event); got != want {
			t.Fatalf("pop %+v, container/heap pops %+v", got, want)
		}
	}
}

// TestProbTickAllocFree checks that a warmed-up probabilistic trace
// schedules and injects its replies without allocating. AllocsPerRun
// warms up with one call, then counts the mallocs of one more at
// GOMAXPROCS 1, so the whole 20000-Tick window is one run and a single
// allocation by Tick fails the test. Measured at full GOMAXPROCS, the
// window's closing runtime.ReadMemStats can block on the stop-the-world
// semaphore while a concurrent GC phase change holds it, and the sudog
// that blocking allocates would be counted against Tick.
func TestProbTickAllocFree(t *testing.T) {
	const cycles = 20000
	g := NewProbabilistic(topology.New10x10(), HotBiDF, DefaultRate, 1)
	var sent int
	inject := func(noc.Message) { sent++ }
	now := int64(0)
	allocs := testing.AllocsPerRun(1, func() {
		for end := now + cycles; now < end; now++ {
			g.Tick(now, inject)
		}
	})
	if sent == 0 {
		t.Fatal("no traffic generated")
	}
	if allocs != 0 {
		t.Errorf("%v mallocs over %d warmed-up Ticks, want 0", allocs, cycles)
	}
}

// BenchmarkProbTick measures one cycle of a HotBiDF trace at the
// default rate with a no-op inject: the per-component injection trials
// plus the transactions they start.
func BenchmarkProbTick(b *testing.B) {
	p := NewProbabilistic(topology.New10x10(), HotBiDF, 0, 1)
	inject := func(noc.Message) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Tick(int64(i), inject)
	}
}
