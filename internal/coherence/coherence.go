// Package coherence implements the lightweight directory cache-coherence
// substrate behind the paper's multicast experiments. The paper's two
// multicast message types are exactly this protocol's:
//
//   - invalidates, sent from a cache bank's directory to every core
//     sharing a block when some core requests write permission, and
//   - fills, sent from a cache bank to a set of requesting cores.
//
// Cores issue reads and writes against a block space whose popularity is
// skewed (a small hot set absorbs most accesses, the way locks and shared
// data structures behave); each block's home is a cache bank chosen by
// address hash. The directory tracks a 64-bit sharer vector per block —
// the same bit-vector shape as the network's multicast DBV — and emits
// request, data, invalidate and fill messages onto the network. Because
// hot blocks keep similar sharer sets, the generated multicasts exhibit
// the destination-set reuse the paper's Section 5.2 parameterizes.
package coherence

import (
	"fmt"
	"sort"

	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Workload parameterizes the memory-access stream.
type Workload struct {
	// ReadRate and WriteRate are per-core per-cycle issue probabilities.
	ReadRate, WriteRate float64

	// Blocks is the shared-address-space size in cache blocks.
	Blocks int

	// HotBlocks is the size of the hot set; HotFraction of accesses go
	// to it (synchronization variables, shared counters and the like).
	HotBlocks   int
	HotFraction float64

	// CoalesceWindow is how long (cycles) a home bank collects readers of
	// a block before answering them with one multicast fill. Zero
	// disables coalescing (every read gets a unicast data reply).
	CoalesceWindow int64
}

// withDefaults fills zero fields.
func (w Workload) withDefaults() Workload {
	if w.ReadRate == 0 {
		w.ReadRate = 0.004
	}
	if w.WriteRate == 0 {
		w.WriteRate = 0.001
	}
	if w.Blocks == 0 {
		w.Blocks = 4096
	}
	if w.HotBlocks == 0 {
		w.HotBlocks = 32
	}
	if w.HotFraction == 0 {
		w.HotFraction = 0.5
	}
	if w.CoalesceWindow == 0 {
		w.CoalesceWindow = 24
	}
	return w
}

// entry is one directory entry.
type entry struct {
	sharers uint64 // bit per core
	// pendingReaders are cores awaiting a coalesced fill, with the cycle
	// the window opened.
	pendingReaders uint64
	windowStart    int64
}

// Stats counts protocol activity.
type Stats struct {
	Reads, Writes      int64
	UnicastFills       int64
	MulticastFills     int64
	Invalidates        int64 // multicast invalidate messages
	InvalidatedSharers int64 // total sharer bits cleared by invalidates
	CoalescedReaders   int64
}

// Protocol is the directory engine; it implements traffic.Generator.
type Protocol struct {
	mesh *topology.Mesh
	w    Workload
	rng  *rng.Rand

	cores []int
	dir   map[int]*entry
	stats Stats
}

// New builds a protocol instance.
func New(m *topology.Mesh, w Workload, seed int64) *Protocol {
	return &Protocol{
		mesh:  m,
		w:     w.withDefaults(),
		rng:   rng.New(seed),
		cores: m.Cores(),
		dir:   map[int]*entry{},
	}
}

// Name implements traffic.Generator.
func (p *Protocol) Name() string { return "directory-coherence" }

// Stats returns protocol counters.
func (p *Protocol) Stats() Stats { return p.stats }

// home returns the cache bank owning a block.
func (p *Protocol) home(block int) int {
	caches := p.mesh.Caches()
	return caches[block%len(caches)]
}

// block draws a block id with hot-set skew.
func (p *Protocol) block() int {
	if p.rng.Float64() < p.w.HotFraction {
		return p.rng.Intn(p.w.HotBlocks)
	}
	return p.w.HotBlocks + p.rng.Intn(p.w.Blocks-p.w.HotBlocks)
}

// Tick implements traffic.Generator: issues core memory operations and
// flushes coalescing windows.
func (p *Protocol) Tick(now int64, inject func(noc.Message)) {
	for ci := range p.cores {
		r := p.rng.Float64()
		switch {
		case r < p.w.ReadRate:
			p.read(now, ci, p.block(), inject)
		case r < p.w.ReadRate+p.w.WriteRate:
			p.write(now, ci, p.block(), inject)
		}
	}
	p.flushWindows(now, inject)
}

// read handles a core load: a request to the home bank, and either an
// immediate unicast data reply or enrollment in the coalescing window.
func (p *Protocol) read(now int64, core, block int, inject func(noc.Message)) {
	p.stats.Reads++
	home := p.home(block)
	coreRouter := p.cores[core]
	if coreRouter != home {
		inject(noc.Message{Src: coreRouter, Dst: home, Class: noc.Request, Inject: now})
	}
	e := p.entry(block)
	if p.w.CoalesceWindow > 0 {
		if e.pendingReaders == 0 {
			e.windowStart = now
		}
		e.pendingReaders |= 1 << uint(core)
		return
	}
	e.sharers |= 1 << uint(core)
	if home != coreRouter {
		inject(noc.Message{Src: home, Dst: coreRouter, Class: noc.Data, Inject: now})
		p.stats.UnicastFills++
	}
}

// write handles a core store: write permission requires invalidating all
// other sharers — the paper's multicast invalidate — then the directory
// grants ownership.
func (p *Protocol) write(now int64, core, block int, inject func(noc.Message)) {
	p.stats.Writes++
	home := p.home(block)
	coreRouter := p.cores[core]
	if coreRouter != home {
		inject(noc.Message{Src: coreRouter, Dst: home, Class: noc.Request, Inject: now})
	}
	e := p.entry(block)
	others := e.sharers &^ (1 << uint(core))
	if others != 0 {
		inject(noc.Message{
			Src: home, Class: noc.Invalidate, Inject: now,
			Multicast: true, DBV: others,
		})
		p.stats.Invalidates++
		p.stats.InvalidatedSharers += int64(noc.DBVCount(others))
	}
	e.sharers = 1 << uint(core)
	if home != coreRouter {
		inject(noc.Message{Src: home, Dst: coreRouter, Class: noc.Data, Inject: now})
	}
}

// flushWindows answers expired coalescing windows with multicast fills.
// Expired blocks are flushed in ascending block order — iterating the
// directory map directly would emit fills in a different order each run,
// and injection order changes VC allocation downstream, breaking
// replay determinism.
func (p *Protocol) flushWindows(now int64, inject func(noc.Message)) {
	var due []int
	for block, e := range p.dir {
		if e.pendingReaders == 0 || now-e.windowStart < p.w.CoalesceWindow {
			continue
		}
		due = append(due, block)
	}
	sort.Ints(due)
	for _, block := range due {
		e := p.dir[block]
		home := p.home(block)
		readers := e.pendingReaders
		e.sharers |= readers
		e.pendingReaders = 0
		if n := noc.DBVCount(readers); n == 1 {
			core := noc.DBVCores(readers)[0]
			if p.cores[core] != home {
				inject(noc.Message{Src: home, Dst: p.cores[core], Class: noc.Data, Inject: now})
				p.stats.UnicastFills++
			}
		} else {
			inject(noc.Message{
				Src: home, Class: noc.Fill, Inject: now,
				Multicast: true, DBV: readers,
			})
			p.stats.MulticastFills++
			p.stats.CoalescedReaders += int64(n)
		}
	}
}

func (p *Protocol) entry(block int) *entry {
	e, ok := p.dir[block]
	if !ok {
		e = &entry{}
		p.dir[block] = e
	}
	return e
}

// Sharers exposes a block's sharer vector (tests and invariants).
func (p *Protocol) Sharers(block int) uint64 { return p.entry(block).sharers }

// Validate checks protocol invariants and returns an error describing the
// first violation: sharer vectors must only name existing cores.
func (p *Protocol) Validate() error {
	limit := uint(len(p.cores))
	for b, e := range p.dir {
		for _, c := range noc.DBVCores(e.sharers | e.pendingReaders) {
			if uint(c) >= limit {
				return fmt.Errorf("coherence: block %d names core %d beyond %d", b, c, limit)
			}
		}
	}
	return nil
}
