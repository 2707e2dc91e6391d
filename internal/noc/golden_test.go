package noc

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// digestObserver folds every Observer event into a running FNV-1a
// digest, giving a compact fingerprint of the full event stream (order
// included).
type digestObserver struct {
	BaseObserver
	h      uint64
	events int64
}

func newDigestObserver() *digestObserver { return &digestObserver{h: 14695981039346656037} }

func (d *digestObserver) note(format string, args ...any) {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	d.h = (d.h ^ h.Sum64()) * 1099511628211
	d.events++
}

func (d *digestObserver) FlitSent(r, p int, now int64) { d.note("sent %d %d %d", r, p, now) }
func (d *digestObserver) FlitEjected(r int, lat int64) { d.note("ej %d %d", r, lat) }
func (d *digestObserver) PacketDelivered(m Message, at int64, hops int) {
	d.note("del %v %d %d", m, at, hops)
}
func (d *digestObserver) MulticastDelivered(m Message, at int64) { d.note("mdel %v %d", m, at) }
func (d *digestObserver) LinkFailed(r, p int, now int64)         { d.note("lf %d %d %d", r, p, now) }
func (d *digestObserver) Replanned(edges int, now int64)         { d.note("rp %d %d", edges, now) }
func (d *digestObserver) CycleEnd(n *Network)                    { d.note("end %d", n.Now()) }

// goldenRun is everything one seeded run exposes: the final statistics
// and the observer event count and digest.
type goldenRun struct {
	stats  Stats
	events int64
	digest uint64
}

// runGolden drives cfg with a fixed seeded workload: 1200 cycles of
// random unicast traffic (plus periodic multicasts on multicast
// configs), then a bounded drain. Extra observers are attached after
// the digest observer.
func runGolden(t *testing.T, cfg Config, seed int64, extra ...Observer) goldenRun {
	t.Helper()
	n, err := NewChecked(cfg)
	if err != nil {
		t.Fatalf("NewChecked: %v", err)
	}
	return driveGolden(t, n, cfg, seed, extra...)
}

// driveGolden is runGolden on a network the caller built (or reset) for
// cfg.
func driveGolden(t *testing.T, n *Network, cfg Config, seed int64, extra ...Observer) goldenRun {
	t.Helper()
	obs := newDigestObserver()
	n.AttachObserver(obs)
	for _, o := range extra {
		n.AttachObserver(o)
	}
	goldenTraffic(n, cfg, rand.New(rand.NewSource(seed)), 1200)
	if !n.Drain(2_000_000) {
		t.Fatalf("drain failed (in flight %d)", n.InFlight())
	}
	return goldenRun{stats: n.Stats(), events: obs.events, digest: obs.h}
}

// goldenTraffic steps n for the given number of cycles under
// runGolden's workload, drawing from rng.
func goldenTraffic(n *Network, cfg Config, rng *rand.Rand, cycles int) {
	classes := []Class{Request, Data, MemLine}
	for cyc := 0; cyc < cycles; cyc++ {
		if rng.Float64() < 0.7 {
			src, dst := rng.Intn(cfg.Mesh.N()), rng.Intn(cfg.Mesh.N())
			if src != dst {
				n.Inject(Message{Src: src, Dst: dst, Class: classes[rng.Intn(len(classes))], Inject: n.Now()})
			}
		}
		if (cfg.Multicast == MulticastRF || cfg.Multicast == MulticastVCT) && cyc%40 == 7 {
			banks := cfg.Mesh.Caches()
			n.Inject(Message{
				Src: banks[rng.Intn(len(banks))], Class: Invalidate, Multicast: true,
				DBV: rng.Uint64() | 1, Inject: n.Now(),
			})
		}
		n.Step()
	}
}

// statsLiteral renders s as a Go composite literal of its non-zero
// fields, the form the golden table below is written in.
func statsLiteral(s Stats) string {
	var b strings.Builder
	b.WriteString("Stats{\n")
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, "\t%s: %#v,\n", v.Type().Field(i).Name, f.Interface())
		}
	}
	b.WriteString("}")
	return b.String()
}

// stepGoldenCase is one configuration TestStepGolden pins, with its
// recorded run.
type stepGoldenCase struct {
	name string
	cfg  Config
	want goldenRun
}

// stepGoldenCases lists TestStepGolden's configurations: plain, RF and
// adaptive meshes, both multicast schemes, and link-level faults.
func stepGoldenCases() []stepGoldenCase {
	m := topology.New10x10()
	edges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget: 16, Eligible: m.ShortcutEligible,
	})
	return []stepGoldenCase{
		{"baseline-mesh", Config{Mesh: m, Width: tech.Width16B}, goldenRun{
			stats: Stats{
				Cycles:           1248,
				PacketsInjected:  819,
				PacketsEjected:   819,
				FlitsInjected:    3637,
				FlitsEjected:     3637,
				PacketLatency:    33969,
				FlitLatency:      139044,
				HopSum:           5317,
				RouterTraversals: 27474,
				MeshFlitHops:     23837,
				LocalFlitHops:    7274,
				MsgsByDistance:   []int64{0, 32, 68, 73, 81, 83, 91, 89, 80, 71, 56, 36, 24, 12, 11, 6, 3, 3, 0},
			},
			events: 33178, digest: 0x457c8ce2a8fa8bb8,
		}},
		{"shortcuts-4B", Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges}, goldenRun{
			stats: Stats{
				Cycles:           1285,
				PacketsInjected:  819,
				PacketsEjected:   819,
				FlitsInjected:    12625,
				FlitsEjected:     12625,
				PacketLatency:    39760,
				FlitLatency:      422792,
				HopSum:           3771,
				RouterTraversals: 71106,
				MeshFlitHops:     51839,
				LocalFlitHops:    25250,
				RFShortcutBits:   212544,
				MsgsByDistance:   []int64{0, 32, 68, 73, 81, 83, 91, 89, 80, 71, 56, 36, 24, 12, 11, 6, 3, 3, 0},
			},
			events: 85835, digest: 0x9589177aaf1c10b3,
		}},
		{"adaptive-shortcuts", Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges, AdaptiveRouting: true}, goldenRun{
			stats: Stats{
				Cycles:           1257,
				PacketsInjected:  819,
				PacketsEjected:   819,
				FlitsInjected:    12625,
				FlitsEjected:     12625,
				PacketLatency:    38613,
				FlitLatency:      411439,
				HopSum:           3771,
				RouterTraversals: 71106,
				MeshFlitHops:     51050,
				LocalFlitHops:    25250,
				RFShortcutBits:   237792,
				MsgsByDistance:   []int64{0, 32, 68, 73, 81, 83, 91, 89, 80, 71, 56, 36, 24, 12, 11, 6, 3, 3, 0},
			},
			events: 85807, digest: 0x8c88edba2d7c5ef0,
		}},
		{"rf-multicast", Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastRF, RFEnabled: m.RFPlacement(50)}, goldenRun{
			stats: Stats{
				Cycles:                  1271,
				PacketsInjected:         824,
				PacketsEjected:          824,
				FlitsInjected:           4138,
				FlitsEjected:            4138,
				PacketLatency:           34343,
				FlitLatency:             140739,
				HopSum:                  5365,
				RouterTraversals:        28748,
				MeshFlitHops:            24610,
				LocalFlitHops:           8276,
				RFMulticastBits:         7680,
				RFMulticastRxBits:       288384,
				RFGatedRxFlits:          747,
				MulticastMessages:       30,
				MulticastDeliveries:     944,
				MulticastLatency:        15895,
				MulticastFlitsDelivered: 944,
				MulticastFlitLatency:    15895,
				MsgsByDistance:          []int64{0, 34, 65, 72, 80, 94, 87, 89, 79, 75, 51, 35, 23, 14, 10, 9, 4, 3, 0},
			},
			events: 35433, digest: 0xef9cd845676f2078,
		}},
		{"vct-multicast", Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastVCT}, goldenRun{
			stats: Stats{
				Cycles:                  1293,
				PacketsInjected:         824,
				PacketsEjected:          824,
				FlitsInjected:           4796,
				FlitsEjected:            4796,
				PacketLatency:           34381,
				FlitLatency:             140976,
				HopSum:                  5365,
				RouterTraversals:        30873,
				MeshFlitHops:            26077,
				LocalFlitHops:           9592,
				MulticastMessages:       30,
				MulticastDeliveries:     944,
				MulticastLatency:        77641,
				MulticastFlitsDelivered: 944,
				MulticastFlitLatency:    77641,
				VCTMisses:               30,
				MsgsByDistance:          []int64{0, 34, 65, 72, 80, 94, 87, 89, 79, 75, 51, 35, 23, 14, 10, 9, 4, 3, 0},
			},
			events: 37580, digest: 0x6d634b4f5cce1793,
		}},
		// Link-level corruption and retry on mesh links and RF bands.
		{"faulty-integrity", Config{
			Mesh: m, Width: tech.Width16B, Shortcuts: edges,
			Fault: FaultConfig{MeshBER: 2e-4, RFBER: 1e-3, Seed: 7},
		}, goldenRun{
			stats: Stats{
				Cycles:           1244,
				PacketsInjected:  819,
				PacketsEjected:   819,
				FlitsInjected:    3637,
				FlitsEjected:     3637,
				PacketLatency:    26307,
				FlitLatency:      104379,
				HopSum:           3771,
				RouterTraversals: 20472,
				MeshFlitHops:     14919,
				LocalFlitHops:    7274,
				RFShortcutBits:   245248,
				FlitsCorrupted:   10,
				Retransmits:      10,
				MsgsByDistance:   []int64{0, 32, 68, 73, 81, 83, 91, 89, 80, 71, 56, 36, 24, 12, 11, 6, 3, 3, 0},
			},
			events: 26172, digest: 0xd143deeba05042,
		}},
	}
}

// TestStepGolden pins the serial arbitration schedule: router index
// order, active-list order within a router, and same-cycle credit
// turnaround between routers are all visible in the results, so any
// change to the per-cycle pass shows up here as a changed Stats or
// event stream. The constants were recorded from the
// reference simulator; a deliberate model change must re-record them
// (a failure prints the new Stats literal).
func TestStepGolden(t *testing.T) {
	for _, c := range stepGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := runGolden(t, c.cfg, 42)
			if got.events == 0 {
				t.Fatal("run observed no events")
			}
			if !reflect.DeepEqual(got.stats, c.want.stats) {
				t.Errorf("stats diverge from golden:\n got %s\nwant %s", statsLiteral(got.stats), statsLiteral(c.want.stats))
			}
			if got.events != c.want.events || got.digest != c.want.digest {
				t.Errorf("event stream = %d events, digest %#x; want %d, %#x",
					got.events, got.digest, c.want.events, c.want.digest)
			}
		})
	}
}
