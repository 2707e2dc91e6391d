// Package cpu is a closed-loop workload model: 64 simple cores that
// issue memory requests against the cache banks, bounded by per-core
// MSHRs (outstanding-miss registers). Unlike the open-loop trace
// generators in internal/traffic — which inject on schedule no matter
// how congested the network is — a closed-loop core stalls when its
// MSHRs fill, so network latency feeds back into offered load exactly as
// it does in the full-system simulations the paper captured its traces
// from. The model reports end-to-end request round-trips and a
// throughput proxy (completed operations per cycle), which is how NoC
// improvements become system-level speedups.
package cpu

import (
	"container/heap"
	"math/rand"

	"repro/internal/noc"
	"repro/internal/topology"
)

// Params configures the core model.
type Params struct {
	// MSHRs bounds outstanding requests per core. Default 8.
	MSHRs int

	// IssueRate is the probability per cycle that a core with a free
	// MSHR issues a memory operation. Default 0.25 (a memory-intensive
	// phase).
	IssueRate float64

	// CacheServiceCycles is the bank lookup latency between a request's
	// arrival and its reply's injection. Default 6 (cache at 4 GHz,
	// network at 2 GHz: a 12-core-cycle bank pipeline).
	CacheServiceCycles int64

	// MissFraction of requests also fetch a line from memory before the
	// reply (adding a cache<->memory round trip). Default 0.1.
	MissFraction float64

	// MemServiceCycles is the memory service latency. Default 50.
	MemServiceCycles int64

	// HotBankFraction of requests target a single hot bank (0 spreads
	// uniformly). Default 0.
	HotBankFraction float64
	// HotBank is the router id of the hot bank (defaults to the paper's
	// (7,0) when HotBankFraction > 0).
	HotBank int
}

func (p Params) withDefaults(m *topology.Mesh) Params {
	if p.MSHRs == 0 {
		p.MSHRs = 8
	}
	if p.IssueRate == 0 {
		p.IssueRate = 0.25
	}
	if p.CacheServiceCycles == 0 {
		p.CacheServiceCycles = 6
	}
	if p.MissFraction == 0 {
		p.MissFraction = 0.1
	}
	if p.MemServiceCycles == 0 {
		p.MemServiceCycles = 50
	}
	if p.HotBankFraction > 0 && p.HotBank == 0 {
		p.HotBank = m.ID(7, 0)
	}
	return p
}

// Stats summarizes closed-loop behaviour.
type Stats struct {
	Issued    int64
	Completed int64
	// RoundTripSum is the total request-to-reply latency over completed
	// operations.
	RoundTripSum int64
	// StallCycles counts core-cycles spent with all MSHRs full.
	StallCycles int64
}

// AvgRoundTrip returns mean operation latency in network cycles.
func (s Stats) AvgRoundTrip() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.RoundTripSum) / float64(s.Completed)
}

// Throughput returns completed operations per cycle per core.
func (s Stats) Throughput(cycles int64, cores int) float64 {
	if cycles == 0 || cores == 0 {
		return 0
	}
	return float64(s.Completed) / float64(cycles) / float64(cores)
}

// System is the closed-loop workload; it implements traffic.Generator
// and must be attached to the network before simulation so replies can
// retire MSHRs.
type System struct {
	mesh   *topology.Mesh
	params Params
	rng    *rand.Rand

	cores       []int
	caches      []int
	mems        []int
	coreOf      map[int]int // router -> core index
	outstanding []int
	inflight    [][]int64 // per-core FIFO of issue cycles

	pending eventQueue
	stats   Stats
	now     int64
	// draining disables new issues while outstanding traffic retires.
	draining bool
}

// New builds the system.
func New(m *topology.Mesh, p Params, seed int64) *System {
	s := &System{
		mesh:   m,
		params: p.withDefaults(m),
		rng:    rand.New(rand.NewSource(seed)),
		cores:  m.Cores(),
		caches: m.Caches(),
		mems:   m.Memories(),
		coreOf: map[int]int{},
	}
	s.outstanding = make([]int, len(s.cores))
	s.inflight = make([][]int64, len(s.cores))
	for i, r := range s.cores {
		s.coreOf[r] = i
	}
	return s
}

// Name implements traffic.Generator.
func (s *System) Name() string { return "closed-loop-cores" }

// Stats returns the model's counters.
func (s *System) Stats() Stats { return s.stats }

// Outstanding returns core ci's in-flight request count.
func (s *System) Outstanding(ci int) int { return s.outstanding[ci] }

// Attach registers the reply path on a network as an observer. Must be
// called once before simulation.
func (s *System) Attach(n *noc.Network) {
	n.AttachObserver(replyPath{s: s})
}

// replyPath is the System's delivery observer.
type replyPath struct {
	noc.BaseObserver
	s *System
}

// PacketDelivered implements noc.Observer.
func (r replyPath) PacketDelivered(msg noc.Message, at int64, _ int) { r.s.onDeliver(msg, at) }

// Tick implements traffic.Generator: issues new requests and injects
// scheduled replies.
func (s *System) Tick(now int64, inject func(noc.Message)) {
	s.now = now
	for s.pending.Len() > 0 && s.pending[0].at <= now {
		e := heap.Pop(&s.pending).(event)
		e.msg.Inject = now
		inject(e.msg)
	}
	if s.draining {
		return
	}
	for ci, router := range s.cores {
		if s.outstanding[ci] >= s.params.MSHRs {
			s.stats.StallCycles++
			continue
		}
		if s.rng.Float64() >= s.params.IssueRate {
			continue
		}
		bank := s.pickBank()
		s.outstanding[ci]++
		s.inflight[ci] = append(s.inflight[ci], now)
		s.stats.Issued++
		inject(noc.Message{Src: router, Dst: bank, Class: noc.Request, Inject: now})
	}
}

func (s *System) pickBank() int {
	if s.params.HotBankFraction > 0 && s.rng.Float64() < s.params.HotBankFraction {
		return s.params.HotBank
	}
	return s.caches[s.rng.Intn(len(s.caches))]
}

// onDeliver reacts to message arrivals: requests get serviced into
// replies (with an occasional memory fetch first), and replies retire
// the issuing core's oldest MSHR.
func (s *System) onDeliver(msg noc.Message, at int64) {
	switch {
	case msg.Class == noc.Request && s.mesh.Kind(msg.Dst) == topology.Cache:
		reply := noc.Message{Src: msg.Dst, Dst: msg.Src, Class: noc.Data}
		delay := s.params.CacheServiceCycles
		if s.rng.Float64() < s.params.MissFraction {
			// Fetch the line first: bank <-> nearest memory port.
			mem := s.nearestMem(msg.Dst)
			heap.Push(&s.pending, event{at: at + delay, msg: noc.Message{
				Src: msg.Dst, Dst: mem, Class: noc.MemLine,
			}})
			delay += s.params.MemServiceCycles
		}
		heap.Push(&s.pending, event{at: at + delay, msg: reply})
	case msg.Class == noc.MemLine && s.mesh.Kind(msg.Dst) == topology.Memory:
		// Memory returns the line to the requesting bank.
		heap.Push(&s.pending, event{at: at + s.params.MemServiceCycles, msg: noc.Message{
			Src: msg.Dst, Dst: msg.Src, Class: noc.MemLine,
		}})
	case msg.Class == noc.Data:
		ci, ok := s.coreOf[msg.Dst]
		if !ok || s.outstanding[ci] == 0 {
			return
		}
		s.outstanding[ci]--
		issued := s.inflight[ci][0]
		s.inflight[ci] = s.inflight[ci][1:]
		s.stats.Completed++
		s.stats.RoundTripSum += at - issued
	}
}

func (s *System) nearestMem(from int) int {
	best, bestD := s.mems[0], 1<<30
	for _, mm := range s.mems {
		if d := s.mesh.Manhattan(from, mm); d < bestD {
			best, bestD = mm, d
		}
	}
	return best
}

// Pending reports scheduled-but-uninjected replies; the system is fully
// drained only when this is zero and the network is empty.
func (s *System) Pending() int { return s.pending.Len() }

// event is a scheduled injection.
type event struct {
	at  int64
	msg noc.Message
}

type eventQueue []event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// RunClosedLoop drives the system against a network for the given
// cycles, then drains both (injecting any replies that become due during
// the drain). Returns false on a drain failure.
func RunClosedLoop(s *System, n *noc.Network, cycles int64) bool {
	s.Attach(n)
	for now := int64(0); now < cycles; now++ {
		s.Tick(now, n.Inject)
		n.Step()
	}
	s.draining = true
	defer func() { s.draining = false }()
	// Drain: keep servicing replies until the pipeline empties.
	for guard := 0; guard < 64; guard++ {
		if !n.Drain(500000) {
			return false
		}
		if s.Pending() == 0 {
			return true
		}
		for i := 0; i < 256 && s.Pending() > 0; i++ {
			s.Tick(n.Now(), n.Inject)
			n.Step()
		}
	}
	return n.Drain(500000) && s.Pending() == 0
}
