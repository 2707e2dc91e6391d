// Package topology describes the paper's 10x10 mesh floorplan: 64
// processor cores, 32 cache banks in four clusters, and 4 memory ports on
// the corners, plus the staggered placements of RF-enabled routers and the
// serpentine RF-I transmission-line bundle.
package topology

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// NodeKind classifies the component attached to a router's local port.
type NodeKind int

// Component kinds, in the paper's color coding: cores are white squares,
// caches gray, memory controllers black.
const (
	Core NodeKind = iota
	Cache
	Memory
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case Core:
		return "core"
	case Cache:
		return "cache"
	case Memory:
		return "memory"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Coord is a router position on the mesh; (0,0) is the bottom-left corner.
type Coord struct{ X, Y int }

// Mesh is the 2D mesh floorplan. Router ids are dense: id = Y*W + X.
type Mesh struct {
	W, H     int
	kinds    []NodeKind
	clusters [][]int // cache router ids per cluster
	central  []int   // designated central (multicast Tx) bank per cluster
	cluster  []int   // router id -> cluster index, -1 for non-cache
}

// Standard dimensions of the paper's network.
const (
	MeshWidth        = 10
	MeshHeight       = 10
	NumRouters       = MeshWidth * MeshHeight
	NumCores         = 64
	NumCaches        = 32
	NumMemory        = 4
	NumCacheClusters = 4
)

// New10x10 builds the paper's 10x10 floorplan:
//
//   - the four corner routers host memory controllers (the paper forbids
//     shortcuts from starting or ending there, since corners only talk to
//     nearby cache banks);
//   - the 32 cache banks form four 4x2 clusters hugging the bottom and top
//     edges next to the memory corners (the paper's Figure 2(c) identifies
//     the router at (7,0) as a cache bank, which this layout reproduces);
//   - the remaining 64 routers host cores.
//
// One bank per cluster is designated "central": it is the cluster's RF-I
// multicast transmitter (Section 3.3).
func New10x10() *Mesh { return New(MeshWidth, MeshHeight) }

// New generalizes the paper's floorplan recipe to a WxH mesh (both even,
// at least 6x6), for scaling studies: memory controllers on the four
// corners, four cache clusters of (W-2)/2 x 2 banks hugging the bottom
// and top edges beside the corners (4(W-2) banks total, 32 on the
// paper's 10x10), cores everywhere else. Die area scales with the router
// count so the per-hop link length stays tech.RouterSpacingMM.
func New(w, h int) *Mesh {
	if w < 6 || h < 6 || w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("topology: unsupported mesh %dx%d (want even, >= 6x6)", w, h))
	}
	m := &Mesh{
		W:       w,
		H:       h,
		kinds:   make([]NodeKind, w*h),
		cluster: make([]int, w*h),
	}
	for i := range m.kinds {
		m.kinds[i] = Core
		m.cluster[i] = -1
	}
	for _, c := range []Coord{{0, 0}, {w - 1, 0}, {0, h - 1}, {w - 1, h - 1}} {
		m.kinds[m.ID(c.X, c.Y)] = Memory
	}
	// Four kx2 cache clusters, k = (w-2)/2: bottom-left, bottom-right,
	// top-left, top-right.
	k := (w - 2) / 2
	blocks := []struct{ x0, y0 int }{{1, 0}, {1 + k, 0}, {1, h - 2}, {1 + k, h - 2}}
	m.clusters = make([][]int, len(blocks))
	m.central = make([]int, len(blocks))
	for ci, b := range blocks {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < k; dx++ {
				id := m.ID(b.x0+dx, b.y0+dy)
				m.kinds[id] = Cache
				m.cluster[id] = ci
				m.clusters[ci] = append(m.clusters[ci], id)
			}
		}
		// Central bank: the inner-row, center-column bank of the block.
		m.central[ci] = m.ID(b.x0+k/2, b.y0+boolToInt(b.y0 == 0))
	}
	return m
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ID converts a coordinate to a router id.
func (m *Mesh) ID(x, y int) int {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		panic(fmt.Sprintf("topology: coordinate (%d,%d) out of range", x, y))
	}
	return y*m.W + x
}

// Coord converts a router id to its coordinate.
func (m *Mesh) Coord(id int) Coord {
	if id < 0 || id >= m.W*m.H {
		panic(fmt.Sprintf("topology: router id %d out of range", id))
	}
	return Coord{X: id % m.W, Y: id / m.W}
}

// N returns the number of routers.
func (m *Mesh) N() int { return m.W * m.H }

// Kind returns the component kind attached to router id.
func (m *Mesh) Kind(id int) NodeKind { return m.kinds[id] }

// Cores returns the router ids hosting cores, in id order.
func (m *Mesh) Cores() []int { return m.byKind(Core) }

// Caches returns the router ids hosting cache banks, in id order.
func (m *Mesh) Caches() []int { return m.byKind(Cache) }

// Memories returns the router ids hosting memory controllers, in id order.
func (m *Mesh) Memories() []int { return m.byKind(Memory) }

func (m *Mesh) byKind(k NodeKind) []int {
	var out []int
	for id, kk := range m.kinds {
		if kk == k {
			out = append(out, id)
		}
	}
	return out
}

// CacheClusters returns the cache router ids of each of the four
// clusters.
func (m *Mesh) CacheClusters() [][]int { return m.clusters }

// ClusterOf returns the cache-cluster index of router id, or -1 if the
// router does not host a cache bank.
func (m *Mesh) ClusterOf(id int) int { return m.cluster[id] }

// CentralBank returns the designated multicast-transmitter bank of
// cluster ci.
func (m *Mesh) CentralBank(ci int) int { return m.central[ci] }

// IsCorner reports whether id is one of the four corner routers (which
// host memory interfaces and are excluded from shortcut placement).
func (m *Mesh) IsCorner(id int) bool {
	c := m.Coord(id)
	return (c.X == 0 || c.X == m.W-1) && (c.Y == 0 || c.Y == m.H-1)
}

// ShortcutEligible reports whether a shortcut may start or end at router
// id (everything except the memory corners).
func (m *Mesh) ShortcutEligible(id int) bool { return !m.IsCorner(id) }

// Manhattan returns the hop distance between two routers on the mesh.
func (m *Mesh) Manhattan(a, b int) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Graph returns the mesh connectivity as a unit-weight digraph. The
// returned graph is fresh; callers may add shortcut edges freely.
func (m *Mesh) Graph() *graph.Digraph { return graph.Grid(m.W, m.H) }

// RFPlacement returns the ids of the RF-enabled routers for the three
// design points the paper evaluates:
//
//	100 - every non-corner router is RF-enabled (the "maximal" case; the
//	      four memory corners never carry RF hardware since shortcuts may
//	      not start or end there, so this set has 96 routers);
//	 50 - a staggered (checkerboard) pattern, so every router is at most
//	      one hop from an RF access point; the two corners that fall on the
//	      RF parity are substituted by their inward neighbors to keep the
//	      count at exactly 50;
//	 25 - a sparser stagger (every other router of the 50-point pattern),
//	      so every router is at most two hops from an access point, again
//	      padded to exactly 25 with a corner substitute.
//
// Each set is RFStagger at density 1, 2 or 4 plus the corner substitutes.
func (m *Mesh) RFPlacement(n int) []int {
	var density int
	var subs []Coord
	switch n {
	case 100:
		density = 1
	case 50:
		// Corners (9,0) and (0,9) have odd parity; substitute their
		// inward neighbors (8,0) and (1,9), which have even parity.
		density, subs = 2, []Coord{{8, 0}, {1, 9}}
	case 25:
		// Corner (9,0) matches the pattern; substitute (7,1).
		density, subs = 4, []Coord{{7, 1}}
	default:
		panic(fmt.Sprintf("topology: unsupported RF placement size %d (want 25, 50 or 100)", n))
	}
	out := m.RFStagger(density)
	for _, s := range subs {
		out = append(out, m.ID(s.X, s.Y))
	}
	slices.Sort(out)
	return out
}

// RFStagger returns a staggered RF-enabled placement for any mesh size:
// density 2 keeps every other router (checkerboard; at most one hop to an
// access point), density 4 every fourth (at most two hops). Corners are
// always excluded. For the paper's exact 25/50-router sets on the 10x10
// mesh use RFPlacement.
func (m *Mesh) RFStagger(density int) []int {
	var keep func(c Coord) bool
	switch density {
	case 1:
		keep = func(c Coord) bool { return true }
	case 2:
		keep = func(c Coord) bool { return (c.X+c.Y)%2 == 1 }
	case 4:
		keep = func(c Coord) bool { return c.X%2 == 1 && c.Y%2 == 0 }
	default:
		panic(fmt.Sprintf("topology: unsupported stagger density %d (want 1, 2 or 4)", density))
	}
	var out []int
	for id := 0; id < m.N(); id++ {
		if m.IsCorner(id) {
			continue
		}
		if keep(m.Coord(id)) {
			out = append(out, id)
		}
	}
	return out
}

// Serpentine returns the order in which the RF-I transmission-line bundle
// visits the routers as it winds boustrophedon across the die (the thick
// winding line of the paper's Figure 2(a)). Its length in millimeters,
// together with the router spacing, sizes the physical bundle.
func (m *Mesh) Serpentine() []int {
	out := make([]int, 0, m.N())
	for y := 0; y < m.H; y++ {
		if y%2 == 0 {
			for x := 0; x < m.W; x++ {
				out = append(out, m.ID(x, y))
			}
		} else {
			for x := m.W - 1; x >= 0; x-- {
				out = append(out, m.ID(x, y))
			}
		}
	}
	return out
}

// SerpentineLengthMM returns the bundle length in mm given the
// inter-router spacing in mm.
func (m *Mesh) SerpentineLengthMM(spacingMM float64) float64 {
	return float64(m.N()-1) * spacingMM
}

// Render draws the floorplan as a character grid, one rune per router,
// with row 0 at the bottom (the papers' orientation). mark, when
// non-nil, may override the default glyphs ('.' core, 'c' cache,
// 'M' memory) by returning a non-zero rune for a router id.
func (m *Mesh) Render(mark func(id int) rune) string {
	var b []byte
	for y := m.H - 1; y >= 0; y-- {
		for x := 0; x < m.W; x++ {
			id := m.ID(x, y)
			ch := '.'
			switch m.Kind(id) {
			case Cache:
				ch = 'c'
			case Memory:
				ch = 'M'
			}
			if mark != nil {
				if r := mark(id); r != 0 {
					ch = r
				}
			}
			b = append(b, byte(ch), ' ')
		}
		b = append(b, '\n')
	}
	return string(b)
}
