// Package noc is a cycle-driven, flit-level network-on-chip simulator
// equivalent in modeling detail to the Garnet model the paper uses:
// wormhole switching, credit-based virtual-channel flow control, the
// paper's 5-stage router pipeline (route computation, VC allocation,
// switch allocation, switch traversal, link traversal; head flits pay all
// five stages, body and tail flits pay three), XY or table-based
// shortest-path routing, single-cycle RF-I shortcut links, reserved
// escape virtual channels for deadlock freedom, and an RF-I multicast
// channel with VCT and unicast-expansion baselines.
package noc

import (
	"fmt"

	"repro/internal/tech"
)

// Class distinguishes the paper's message classes, which determine size.
type Class int

// Message classes and their payload-inclusive sizes (Section 4.1):
// request messages are 7 bytes, data messages 39 bytes, and messages
// between cache banks and memory controllers 132 bytes.
const (
	Request    Class = iota // core->cache requests and other control traffic
	Data                    // cache->core / core->core data messages
	MemLine                 // cache<->memory transfers
	Invalidate              // multicast coherence invalidation (control-sized)
	Fill                    // multicast fill (data-sized)
)

// Size returns the message size in bytes for a class.
func (c Class) Size() int {
	switch c {
	case Request, Invalidate:
		return 7
	case Data, Fill:
		return 39
	case MemLine:
		return 132
	}
	panic(fmt.Sprintf("noc: unknown message class %d", int(c)))
}

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Request:
		return "request"
	case Data:
		return "data"
	case MemLine:
		return "memline"
	case Invalidate:
		return "invalidate"
	case Fill:
		return "fill"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Message is one network message as produced by a traffic generator.
type Message struct {
	// Src and Dst are router ids. For multicast messages Dst is ignored
	// and DBV names the destination cores instead.
	Src, Dst int

	// Class determines the message size.
	Class Class

	// Inject is the cycle at which the message was created.
	Inject int64

	// Multicast marks coherence multicasts (invalidates and fills sent
	// from a cache bank to a set of cores). The destination set is the
	// DBV bit vector, indexed by core number.
	Multicast bool

	// DBV is the 64-bit destination bit vector of a multicast: bit i set
	// means core i (the i'th router in topology.Mesh.Cores() order) must
	// receive the message.
	DBV uint64
}

// Size returns the message size in bytes.
func (m Message) Size() int { return m.Class.Size() }

// Flits returns the number of flits the message occupies at the given
// link width (one flit per link-width bytes, rounded up).
func (m Message) Flits(w tech.LinkWidth) int {
	return FlitsForSize(m.Size(), w)
}

// FlitsForSize returns ceil(sizeBytes / width).
func FlitsForSize(sizeBytes int, w tech.LinkWidth) int {
	b := w.Bytes()
	return (sizeBytes + b - 1) / b
}

// DBVCount returns the number of destination cores in a multicast DBV.
func DBVCount(dbv uint64) int {
	n := 0
	for dbv != 0 {
		dbv &= dbv - 1
		n++
	}
	return n
}

// DBVCores expands a DBV into the list of core indices it names.
func DBVCores(dbv uint64) []int {
	var out []int
	for i := 0; i < 64; i++ {
		if dbv&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// packet is a message in flight inside the network.
type packet struct {
	msg      Message
	numFlits int
	class    int // vcClassNormal or vcClassEscape; sticky once escaped
	hops     int
	ejected  int // flits already ejected at the destination

	// destSet, when non-nil, makes this a forking (VCT-style) multicast
	// packet: router ids still to be served. Unicast packets leave it nil.
	destSet []int

	// vctSetup marks a VCT packet that missed the tree table and must pay
	// the per-router tree-construction penalty.
	vctSetup bool

	// deliverCore, when >= 0, marks an RF-multicast local-delivery packet
	// and names the core index it serves (for latency bookkeeping against
	// the original multicast's inject time).
	deliverCore int

	// mcFwd, when non-nil, marks a multicast being forwarded over the mesh
	// to its cluster's central bank: when the packet's tail ejects there,
	// the carried entry joins the cluster's RF transmission queue instead
	// of normal ejection bookkeeping.
	mcFwd *mcForward

	// pooled marks a packet currently owned by the Network freelist;
	// freePacket panics on a double free instead of silently handing one
	// packet to two owners. Cleared on reuse.
	pooled bool
}

// mcForward is the payload of a central-bank forward (see packet.mcFwd).
type mcForward struct {
	cluster int
	entry   mcEntry
}

// Virtual-channel classes. The paper reserves eight escape VCs that only
// use conventional mesh links (XY routing) to break deadlocks introduced
// by the shortcut topology.
const (
	vcClassNormal = 0
	vcClassEscape = 1
)
