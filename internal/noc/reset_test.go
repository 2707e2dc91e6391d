package noc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tech"
	"repro/internal/topology"
)

// TestResetMatchesNew runs every TestStepGolden configuration on a
// network Reset from another run left mid-flight, and wants the golden
// Stats and event stream, and the link and frequency counters, that New
// builds to. The earlier run is another
// golden configuration, the same one after a band or mesh-link kill
// (whose rebuilt route table Reset must not keep), the same one
// untouched (whose arrays and route table Reset keeps), or a smaller
// mesh with fewer, shallower VCs.
func TestResetMatchesNew(t *testing.T) {
	cases := stepGoldenCases()
	small := Config{
		Mesh: topology.New(6, 6), Width: tech.Width8B, VCsPerClass: 2, BufDepth: 2,
		Fault: FaultConfig{MeshBER: 1e-3, Seed: 3},
	}
	for i, c := range cases {
		next := cases[(i+1)%len(cases)]
		priors := []struct {
			name string
			cfg  Config
			kill bool
		}{
			{"after-" + next.name, next.cfg, false},
			{"after-itself", c.cfg, false},
			{"after-itself-with-a-kill", c.cfg, true},
			{"after-small-mesh", small, false},
		}
		for _, p := range priors {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				t.Parallel()
				n := New(p.cfg)
				stale := newDigestObserver()
				n.AttachObserver(stale)
				goldenTraffic(n, p.cfg, rand.New(rand.NewSource(7)), 700)
				if p.kill {
					var err error
					if len(p.cfg.Shortcuts) > 0 {
						err = n.KillShortcut(p.cfg.Shortcuts[0].From)
					} else {
						err = n.KillMeshLink(44, 45)
					}
					if err != nil {
						t.Fatal(err)
					}
					goldenTraffic(n, p.cfg, rand.New(rand.NewSource(8)), 100)
				}
				if n.InFlight() == 0 {
					t.Fatal("earlier run drained; want it mid-flight")
				}
				staleEvents := stale.events
				if err := n.Reset(c.cfg); err != nil {
					t.Fatal(err)
				}
				got := driveGolden(t, n, c.cfg, 42)
				if !reflect.DeepEqual(got.stats, c.want.stats) {
					t.Errorf("stats diverge from New:\n got %s\nwant %s", statsLiteral(got.stats), statsLiteral(c.want.stats))
				}
				if got.events != c.want.events || got.digest != c.want.digest {
					t.Errorf("event stream = %d events, digest %#x; want %d, %#x",
						got.events, got.digest, c.want.events, c.want.digest)
				}
				// The frequency matrix, the one counter outside Stats and
				// the event stream, against a fresh network's.
				fresh := New(c.cfg)
				driveGolden(t, fresh, c.cfg, 42)
				if !reflect.DeepEqual(n.ObservedFrequency(), fresh.ObservedFrequency()) {
					t.Error("frequency matrix diverges from New")
				}
				if stale.events != staleEvents {
					t.Errorf("an observer of the earlier run saw %d events after Reset", stale.events-staleEvents)
				}
			})
		}
	}
}

// TestResetKeepsArraysAndRoutes pins what Reset reuses: the same
// configuration keeps the VC array and the route table and allocates
// nothing; another shortcut list keeps the VCs but rebuilds the routes;
// another VC count rebuilds the VCs.
func TestResetKeepsArraysAndRoutes(t *testing.T) {
	cases := stepGoldenCases()
	cfg := cases[1].cfg // shortcuts-4B
	n := New(cfg)
	goldenTraffic(n, cfg, rand.New(rand.NewSource(1)), 300)
	vcs, routes := &n.vcArr[0], n.routes
	if allocs := testing.AllocsPerRun(5, func() {
		if err := n.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Reset to the same configuration: %v allocs, want 0", allocs)
	}
	if &n.vcArr[0] != vcs || n.routes != routes {
		t.Error("Reset to the same configuration replaced the VCs or the route table")
	}

	other := cfg
	other.Shortcuts = cfg.Shortcuts[1:]
	if err := n.Reset(other); err != nil {
		t.Fatal(err)
	}
	if &n.vcArr[0] != vcs || n.routes == routes {
		t.Error("Reset to another shortcut list: want the VCs kept and the route table rebuilt")
	}

	other.VCsPerClass = 4
	if err := n.Reset(other); err != nil {
		t.Fatal(err)
	}
	if &n.vcArr[0] == vcs || len(n.vcArr) != n.cfg.Mesh.N()*numPorts*8 {
		t.Errorf("Reset to 4 VCs per class: want a new VC array of %d, got %d", n.cfg.Mesh.N()*numPorts*8, len(n.vcArr))
	}
}

// TestResetRejectsInvalidConfig: an invalid configuration leaves the
// network as it was.
func TestResetRejectsInvalidConfig(t *testing.T) {
	cfg := Config{Mesh: topology.New10x10(), Width: tech.Width16B}
	n := New(cfg)
	goldenTraffic(n, cfg, rand.New(rand.NewSource(1)), 50)
	now, inFlight := n.Now(), n.InFlight()
	if err := n.Reset(Config{Mesh: cfg.Mesh, VCsPerClass: -1}); err == nil {
		t.Fatal("Reset accepted VCsPerClass -1")
	}
	if n.Now() != now || n.InFlight() != inFlight || n.Config().VCsPerClass != 8 {
		t.Errorf("failed Reset changed the network: now %d->%d, in flight %d->%d", now, n.Now(), inFlight, n.InFlight())
	}
}
