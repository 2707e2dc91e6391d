package traffic

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/topology"
)

// App enumerates the synthetic application traces standing in for the
// paper's Simics-captured injection traces (Section 4.2). Each profile is
// constructed from the communication characterization the paper gives:
// Figure 1 shows x264 with one network hotspot and a comparatively flat
// hop-distance profile, and bodytrack with two hotspots, heavy single-hop
// locality and almost no 14-hop traffic; fluidanimate's particle exchange
// is nearest-neighbor dominated, streamcluster is a master/worker medoid
// search (one hot center), and SPECjbb2005 is a commercial workload with
// broadly uniform warehouse-to-warehouse communication.
type App int

const (
	X264 App = iota
	Bodytrack
	Fluidanimate
	Streamcluster
	SPECjbb
)

// Apps lists the five application traces the paper evaluates.
func Apps() []App { return []App{X264, Bodytrack, Fluidanimate, Streamcluster, SPECjbb} }

// String implements fmt.Stringer.
func (a App) String() string {
	switch a {
	case X264:
		return "x264"
	case Bodytrack:
		return "bodytrack"
	case Fluidanimate:
		return "fluidanimate"
	case Streamcluster:
		return "streamcluster"
	case SPECjbb:
		return "specjbb2005"
	}
	return fmt.Sprintf("App(%d)", int(a))
}

// appProfile mixes elementary pair-selection behaviours.
type appProfile struct {
	// Mixture weights (normalized at use): probability that a
	// transaction is nearest-neighbor, hotspot-directed, group-local, or
	// uniform.
	neighbor, hotspot, group, uniform float64
	// hotspots are the cache banks acting as communication centers.
	hotspots []topology.Coord
}

func profileFor(a App, m *topology.Mesh) appProfile {
	// Hotspot coordinates generalize the paper's 10x10 positions to any
	// floorplan built by topology.New: (W-3, 0) is a bottom-right-cluster
	// bank (the paper's (7,0)), (2, H-1) a top-left-cluster bank, and the
	// remaining two sit on the inner cache rows.
	brBank := topology.Coord{X: m.W - 3, Y: 0}
	tlBank := topology.Coord{X: 2, Y: m.H - 1}
	midBank := topology.Coord{X: m.W / 2, Y: 1}
	leftBank := topology.Coord{X: 3, Y: 1}
	switch a {
	case X264:
		// One hotspot; flatter distance profile (much long-range traffic
		// between pipeline stages operating on distant frames). The hot
		// share keeps the single bank's reply stream inside its link
		// service rate on a 4 B mesh (a ~12x uniform share).
		return appProfile{neighbor: 0.15, hotspot: 0.12, group: 0.18, uniform: 0.55,
			hotspots: []topology.Coord{brBank}}
	case Bodytrack:
		// Two hotspots and strong single-hop locality; the hot share is
		// split across both banks.
		return appProfile{neighbor: 0.50, hotspot: 0.20, group: 0.12, uniform: 0.18,
			hotspots: []topology.Coord{brBank, tlBank}}
	case Fluidanimate:
		// Spatially decomposed particle simulation: overwhelmingly
		// nearest-neighbor halo exchange.
		return appProfile{neighbor: 0.70, hotspot: 0.0, group: 0.20, uniform: 0.10}
	case Streamcluster:
		// Master/worker clustering around one coordinator bank.
		return appProfile{neighbor: 0.10, hotspot: 0.12, group: 0.08, uniform: 0.70,
			hotspots: []topology.Coord{midBank}}
	case SPECjbb:
		// Commercial throughput workload: near-uniform cache traffic.
		return appProfile{neighbor: 0.10, hotspot: 0.06, group: 0.14, uniform: 0.70,
			hotspots: []topology.Coord{leftBank}}
	}
	panic("traffic: unknown app")
}

// AppTrace generates a synthetic application workload.
type AppTrace struct {
	prob    *Prob // reuse the probabilistic machinery
	app     App
	profile appProfile
	hot     []int
	rng     *rng.Rand
}

var _ Generator = (*AppTrace)(nil)

// NewAppTrace builds the synthetic injection trace for app.
func NewAppTrace(m *topology.Mesh, app App, rate float64, seed int64) *AppTrace {
	t := &AppTrace{
		prob:    NewProbabilistic(m, Uniform, rate, seed),
		app:     app,
		profile: profileFor(app, m),
		rng:     rng.New(seed ^ 0x5eed),
	}
	for _, c := range t.profile.hotspots {
		t.hot = append(t.hot, m.ID(c.X, c.Y))
	}
	return t
}

// Name implements Generator.
func (t *AppTrace) Name() string { return t.app.String() }

// Tick implements Generator.
func (t *AppTrace) Tick(now int64, inject func(noc.Message)) {
	p := t.prob
	p.future.drain(now, inject)
	p.eachStart(func() { t.transaction(now, inject) })
}

func (t *AppTrace) transaction(now int64, inject func(noc.Message)) {
	p := t.prob
	if p.rng.Float64() < memFraction {
		cache := p.caches[p.rng.Intn(len(p.caches))]
		mem := p.nearestMem(cache)
		inject(noc.Message{Src: cache, Dst: mem, Class: noc.MemLine, Inject: now})
		p.future.push(event{at: now + replyDelay, msg: noc.Message{
			Src: mem, Dst: cache, Class: noc.MemLine,
		}})
		return
	}
	src, dst := t.pair()
	p.emit(now, src, dst, inject)
}

// pair draws per the application's mixture profile.
func (t *AppTrace) pair() (int, int) {
	p := t.prob
	pr := t.profile
	total := pr.neighbor + pr.hotspot + pr.group + pr.uniform
	r := t.rng.Float64() * total
	switch {
	case r < pr.neighbor:
		return t.neighborPair()
	case r < pr.neighbor+pr.hotspot && len(t.hot) > 0:
		hs := t.hot[t.rng.Intn(len(t.hot))]
		core := p.cores[t.rng.Intn(len(p.cores))]
		if t.rng.Float64() < 0.5 {
			return core, hs
		}
		return hs, core
	case r < pr.neighbor+pr.hotspot+pr.group:
		g := t.rng.Intn(len(p.groups))
		for {
			a := p.groups[g][t.rng.Intn(len(p.groups[g]))]
			b := p.groups[g][t.rng.Intn(len(p.groups[g]))]
			if a != b {
				return a, b
			}
		}
	default:
		return p.uniformPair()
	}
}

// neighborPair picks a component and one of its mesh neighbors
// (single-hop traffic).
func (t *AppTrace) neighborPair() (int, int) {
	p := t.prob
	m := p.mesh
	for {
		src := p.comps[t.rng.Intn(len(p.comps))]
		c := m.Coord(src)
		cand := make([]int, 0, 4)
		for _, d := range []topology.Coord{{X: c.X + 1, Y: c.Y}, {X: c.X - 1, Y: c.Y}, {X: c.X, Y: c.Y + 1}, {X: c.X, Y: c.Y - 1}} {
			if d.X < 0 || d.X >= m.W || d.Y < 0 || d.Y >= m.H {
				continue
			}
			id := m.ID(d.X, d.Y)
			if m.Kind(id) != topology.Memory {
				cand = append(cand, id)
			}
		}
		if len(cand) > 0 {
			return src, cand[t.rng.Intn(len(cand))]
		}
	}
}

// Pending reports scheduled replies not yet injected.
func (t *AppTrace) Pending() int { return t.prob.future.Len() }

// FrequencyMatrix estimates the inter-router message-frequency matrix
// F(x,y) of a generator by dry-running it for the given number of cycles.
// This is the profile the paper assumes is "readily collected by event
// counters in our network" and feeds to application-specific shortcut
// selection. The generator is consumed; construct a fresh one (same seed)
// for the actual simulation.
func FrequencyMatrix(g Generator, n int, cycles int64) [][]int64 {
	freq := make([][]int64, n)
	// One closure for the whole run: a func literal passed to Tick inside
	// the loop would be allocated every cycle.
	count := func(m noc.Message) {
		if m.Multicast {
			return
		}
		if freq[m.Src] == nil {
			freq[m.Src] = make([]int64, n)
		}
		freq[m.Src][m.Dst]++
	}
	for now := int64(0); now < cycles; now++ {
		g.Tick(now, count)
	}
	return freq
}
