// Package traffic generates the network workloads of the paper's Section
// 4: the seven probabilistic traces of Table 1 (uniform, unidirectional
// and bidirectional dataflow, hot bidirectional dataflow, and 1/2/4
// hotspot), synthetic application traces standing in for the
// Simics-captured PARSEC and SPECjbb2005 injection traces, multicast
// augmentation with controlled destination-set reuse, and a trace file
// format for capture and replay.
//
// Transactions, not bare messages, are generated: a core->cache
// transaction injects a 7 B request and schedules the 39 B data reply; a
// cache<->memory transaction moves 132 B lines both ways; core->core
// communication is a single 39 B data message. This reproduces the
// message-size mix of the paper's Figure 5(a).
package traffic

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Generator produces messages cycle by cycle.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Tick emits the messages injected at cycle now.
	Tick(now int64, inject func(noc.Message))
}

// Pattern enumerates the probabilistic traces of Table 1.
type Pattern int

const (
	Uniform Pattern = iota
	UniDF
	BiDF
	HotBiDF
	Hotspot1
	Hotspot2
	Hotspot4
)

// Patterns lists all seven probabilistic traces in the paper's order.
func Patterns() []Pattern {
	return []Pattern{Uniform, UniDF, BiDF, HotBiDF, Hotspot1, Hotspot2, Hotspot4}
}

// String implements fmt.Stringer using the paper's trace names.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "Uniform"
	case UniDF:
		return "UniDF"
	case BiDF:
		return "BiDF"
	case HotBiDF:
		return "HotBiDF"
	case Hotspot1:
		return "1Hotspot"
	case Hotspot2:
		return "2Hotspot"
	case Hotspot4:
		return "4Hotspot"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// DefaultRate is the default transaction injection rate per component per
// cycle. It puts the 16 B baseline at a comfortable fraction of
// saturation while loading the 4 B mesh heavily, the regime the paper's
// bandwidth-reduction study operates in, and keeps the hotspot traces'
// hot banks below their local-port service rate.
const DefaultRate = 0.008

// replyDelay is the fixed service latency, in network cycles, between a
// request's arrival epoch and its reply's injection.
const replyDelay = 12

// memFraction is the probability that a transaction is a cache<->memory
// line transfer rather than inter-core/cache communication.
const memFraction = 0.08

// hotFraction is the share of traffic directed at the hotspot(s) in the
// hotspot traces. A single hot bank at this share receives ~15x its
// uniform share: its outbound replies (~1.2 narrow flits/cycle on a 4 B
// mesh) stress the few mesh links around it hard without exceeding what
// the RF-I overlay can drain -- the regime in which the paper's adaptive
// 4 B design beats even the 16 B baseline on hotspot traces.
const hotFraction = 0.10

// Prob is the probabilistic trace generator.
type Prob struct {
	mesh    *topology.Mesh
	pattern Pattern
	// gate is rng.Threshold of the injection rate: a component starts
	// a transaction in a cycle when its draw passes it.
	gate uint64
	rng  *rng.Rand

	comps    []int // all non-memory components (cores + caches)
	cores    []int
	caches   []int
	mems     []int
	groups   [][]int // dataflow groups (non-memory components by column band)
	groupOf  []int
	hotspots []int

	future futureQueue
}

var _ Generator = (*Prob)(nil)

// NewProbabilistic builds a Table 1 trace generator. rate is the
// transaction injection probability per component per cycle (DefaultRate
// if <= 0).
func NewProbabilistic(m *topology.Mesh, pat Pattern, rate float64, seed int64) *Prob {
	if rate <= 0 {
		rate = DefaultRate
	}
	p := &Prob{
		mesh:    m,
		pattern: pat,
		gate:    rng.Threshold(rate),
		rng:     rng.New(seed),
		cores:   m.Cores(),
		caches:  m.Caches(),
		mems:    m.Memories(),
	}
	p.comps = append(append([]int{}, p.cores...), p.caches...)
	// Dataflow groups: two-column bands across the die (five on the
	// paper's 10x10), a functional pipeline layout (Table 1's
	// "components clustered into groups").
	p.groups = make([][]int, (m.W+1)/2)
	p.groupOf = make([]int, m.N())
	for _, id := range p.comps {
		g := m.Coord(id).X / 2
		p.groups[g] = append(p.groups[g], id)
		p.groupOf[id] = g
	}
	// Hotspots: the paper's 1Hotspot centers on the cache bank at (7,0)
	// -- (W-3, 0) in general -- 2Hotspot adds a diagonally-opposite bank,
	// and 4Hotspot uses one bank per cache cluster (the central banks).
	switch pat {
	case Hotspot1:
		p.hotspots = []int{m.ID(m.W-3, 0)}
	case Hotspot2:
		p.hotspots = []int{m.ID(m.W-3, 0), m.ID(2, m.H-1)}
	case Hotspot4:
		for ci := 0; ci < len(m.CacheClusters()); ci++ {
			p.hotspots = append(p.hotspots, m.CentralBank(ci))
		}
	}
	return p
}

// Name implements Generator.
func (p *Prob) Name() string { return p.pattern.String() }

// Tick implements Generator.
func (p *Prob) Tick(now int64, inject func(noc.Message)) {
	p.future.drain(now, inject)
	p.eachStart(func() { p.transaction(now, inject) })
}

// eachStart draws one Float64() < rate trial per component, in
// component order, and calls start at each success before drawing the
// next trial (start draws from the same generator).
func (p *Prob) eachStart(start func()) {
	for left := len(p.comps); ; {
		i := p.rng.FirstBelow(left, p.gate)
		if i == left {
			return
		}
		start()
		left -= i + 1
	}
}

// transaction draws one transaction per the pattern and injects its
// messages (scheduling replies through the future queue).
func (p *Prob) transaction(now int64, inject func(noc.Message)) {
	if p.rng.Float64() < memFraction {
		// Cache<->memory line transfer: write-back out, fill back.
		cache := p.caches[p.rng.Intn(len(p.caches))]
		mem := p.nearestMem(cache)
		inject(noc.Message{Src: cache, Dst: mem, Class: noc.MemLine, Inject: now})
		p.future.push(event{at: now + replyDelay, msg: noc.Message{
			Src: mem, Dst: cache, Class: noc.MemLine,
		}})
		return
	}
	src, dst := p.pair()
	p.emit(now, src, dst, inject)
}

// emit issues the messages of one inter-component transaction.
func (p *Prob) emit(now int64, src, dst int, inject func(noc.Message)) {
	sk, dk := p.mesh.Kind(src), p.mesh.Kind(dst)
	switch {
	case sk == topology.Core && dk == topology.Cache:
		inject(noc.Message{Src: src, Dst: dst, Class: noc.Request, Inject: now})
		p.future.push(event{at: now + replyDelay, msg: noc.Message{
			Src: dst, Dst: src, Class: noc.Data,
		}})
	case sk == topology.Cache && dk == topology.Core:
		inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: now})
	default: // core->core or cache->cache
		inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: now})
	}
}

// pair draws a (src, dst) component pair per the pattern.
func (p *Prob) pair() (int, int) {
	switch p.pattern {
	case Uniform:
		return p.uniformPair()
	case UniDF:
		return p.dataflowPair(false, false)
	case BiDF:
		return p.dataflowPair(true, false)
	case HotBiDF:
		return p.dataflowPair(true, true)
	default:
		return p.hotspotPair()
	}
}

func (p *Prob) uniformPair() (int, int) {
	for {
		src := p.comps[p.rng.Intn(len(p.comps))]
		dst := p.comps[p.rng.Intn(len(p.comps))]
		if src != dst {
			return src, dst
		}
	}
}

// dataflowPair biases communication within a group and toward
// neighboring groups, one-sided for unidirectional dataflow and
// two-sided for bidirectional. With hot set, the pipeline's middle group
// sends/receives a disproportionate share (HotBiDF).
func (p *Prob) dataflowPair(bi, hot bool) (int, int) {
	const pLocal = 0.5
	g := p.rng.Intn(len(p.groups))
	if hot && p.rng.Float64() < 0.35 {
		// Unbalanced pipeline stage: the middle group is the hot stage.
		g = len(p.groups) / 2
	}
	tg := g
	if p.rng.Float64() >= pLocal {
		if bi && p.rng.Float64() < 0.5 {
			tg = g - 1
		} else {
			tg = g + 1
		}
		if tg < 0 {
			tg = g + 1
		}
		if tg >= len(p.groups) {
			tg = g - 1
		}
	}
	for {
		src := p.groups[g][p.rng.Intn(len(p.groups[g]))]
		dst := p.groups[tg][p.rng.Intn(len(p.groups[tg]))]
		if src != dst {
			return src, dst
		}
	}
}

// hotspotPair directs hotFraction of traffic at the hotspot caches.
func (p *Prob) hotspotPair() (int, int) {
	if p.rng.Float64() < hotFraction {
		hs := p.hotspots[p.rng.Intn(len(p.hotspots))]
		core := p.cores[p.rng.Intn(len(p.cores))]
		if p.rng.Float64() < 0.5 {
			return core, hs // request to the hot bank (reply comes back)
		}
		return hs, core // data pushed from the hot bank
	}
	return p.uniformPair()
}

func (p *Prob) nearestMem(from int) int {
	best, bestD := p.mems[0], 1<<30
	for _, m := range p.mems {
		if d := p.mesh.Manhattan(from, m); d < bestD {
			best, bestD = m, d
		}
	}
	return best
}

// event is a scheduled future injection (a reply).
type event struct {
	at  int64
	msg noc.Message
}

// futureQueue is a min-heap of scheduled injections, ordered by at. Its
// sift-up and sift-down take container/heap's steps exactly, so replies
// due in the same cycle pop in the same order, without boxing each event
// in an interface.
type futureQueue []event

func (q futureQueue) Len() int { return len(q) }

func (q *futureQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if h[j].at >= h[i].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *futureQueue) pop() event {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].at < h[j].at {
			j = j2 // right child
		}
		if h[j].at >= h[i].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	*q = h[:n]
	return e
}

func (q *futureQueue) drain(now int64, inject func(noc.Message)) {
	for len(*q) > 0 && (*q)[0].at <= now {
		e := q.pop()
		e.msg.Inject = now
		inject(e.msg)
	}
}

// Pending reports scheduled-but-not-yet-injected replies; generators are
// fully drained only when this is zero.
func (p *Prob) Pending() int { return p.future.Len() }
