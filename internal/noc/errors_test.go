package noc

import (
	"strings"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestConfigValidate drives the construction-time validation surface:
// every user-reachable misconfiguration must come back as an error
// naming the offending knob, and a healthy config must pass.
func TestConfigValidate(t *testing.T) {
	base := func() Config {
		return Config{Mesh: topology.New10x10()}
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error; "" means must validate
	}{
		{"default ok", func(c *Config) {}, ""},
		{"zero value ok", func(c *Config) { c.Mesh = nil }, ""},
		{"bad width", func(c *Config) { c.Width = 5 }, "invalid link width 5"},
		{"negative vcs", func(c *Config) { c.VCsPerClass = -1 }, "VCs per class"},
		{"negative depth", func(c *Config) { c.BufDepth = -2 }, "buffer depth"},
		{"most vcs ok", func(c *Config) { c.VCsPerClass, c.BufDepth = maxVCsPerClass, 1 }, ""},
		{"deepest buffer ok", func(c *Config) { c.VCsPerClass, c.BufDepth = 1, maxBufDepth }, ""},
		{"too many vcs", func(c *Config) { c.VCsPerClass = maxVCsPerClass + 1 }, "VCs per class"},
		{"too deep", func(c *Config) { c.BufDepth = maxBufDepth + 1 }, "buffer depth"},
		{"negative escape timeout", func(c *Config) { c.EscapeTimeout = -1 }, "escape timeout"},
		{"unknown multicast mode", func(c *Config) { c.Multicast = MulticastMode(42) }, "unknown multicast mode 42"},
		{"mesh BER above one", func(c *Config) { c.Fault.MeshBER = 1.5 }, "mesh flit-error rate"},
		{"RF BER negative", func(c *Config) { c.Fault.RFBER = -0.1 }, "RF flit-error rate"},
		{"rf-enabled out of range", func(c *Config) { c.RFEnabled = []int{0, 100} }, "RF-enabled router 100"},
		{"receiver out of range", func(c *Config) { c.MulticastReceivers = []int{-1} }, "multicast receiver router -1"},
		{"shortcut out of range", func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 0, To: 200}}
		}, "unknown router index 200"},
		{"shortcut self-loop", func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 7, To: 7}}
		}, "self-loop shortcut at router 7"},
		{"duplicate shortcut source", func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 3, To: 90}, {From: 3, To: 95}}
		}, "two outbound shortcuts"},
		{"duplicate shortcut destination", func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 3, To: 90}, {From: 5, To: 90}}
		}, "two inbound shortcuts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestConfigValidateAccumulates checks that Validate reports every
// violation at once instead of stopping at the first.
func TestConfigValidateAccumulates(t *testing.T) {
	cfg := Config{
		Mesh:      topology.New10x10(),
		Width:     tech.LinkWidth(3),
		BufDepth:  -1,
		Shortcuts: []shortcut.Edge{{From: 2, To: 2}},
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate() = nil, want joined errors")
	}
	for _, want := range []string{"invalid link width", "buffer depth", "self-loop"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate() error %v missing %q", err, want)
		}
	}
}

// TestNewChecked verifies the error-returning constructor and that the
// legacy New panics (with the same message) on a bad config.
func TestNewChecked(t *testing.T) {
	good := Config{Mesh: topology.New10x10()}
	n, err := NewChecked(good)
	if err != nil || n == nil {
		t.Fatalf("NewChecked(good) = %v, %v", n, err)
	}

	bad := good
	bad.Shortcuts = []shortcut.Edge{{From: 1, To: 50}, {From: 1, To: 60}}
	if _, err := NewChecked(bad); err == nil {
		t.Fatal("NewChecked(duplicate shortcut source) = nil error")
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New(bad config) did not panic")
		}
		if e, ok := r.(error); !ok || !strings.Contains(e.Error(), "two outbound shortcuts") {
			t.Fatalf("New(bad config) panicked with %v", r)
		}
	}()
	New(bad)
}

// TestInjectChecked covers the runtime injection validation: unknown
// routers and (under RF multicast delivery) non-cache senders must be
// rejected without mutating network state or statistics.
func TestInjectChecked(t *testing.T) {
	mesh := topology.New10x10()
	core := mesh.Cores()[0]
	bank := mesh.CacheClusters()[0][0]

	t.Run("unknown routers", func(t *testing.T) {
		n := New(Config{Mesh: mesh})
		cases := []Message{
			{Src: -1, Dst: 5},
			{Src: mesh.N(), Dst: 5},
			{Src: 5, Dst: -3},
			{Src: 5, Dst: mesh.N() + 7},
		}
		for _, msg := range cases {
			if err := n.InjectChecked(msg); err == nil {
				t.Errorf("InjectChecked(%+v) = nil error", msg)
			}
		}
		if got := n.Stats().PacketsInjected; got != 0 {
			t.Errorf("rejected injects counted: PacketsInjected = %d", got)
		}
		if got := n.InFlight(); got != 0 {
			t.Errorf("rejected injects left %d packets in flight", got)
		}
	})

	t.Run("rf multicast from non-cache router", func(t *testing.T) {
		n := New(Config{Mesh: mesh, Multicast: MulticastRF})
		err := n.InjectChecked(Message{Src: core, Multicast: true, DBV: 1})
		if err == nil || !strings.Contains(err.Error(), "not a cache bank") {
			t.Fatalf("InjectChecked(core multicast) = %v", err)
		}
		if got := n.Stats().MulticastMessages; got != 0 {
			t.Errorf("rejected multicast counted: MulticastMessages = %d", got)
		}
		if err := n.InjectChecked(Message{Src: bank, Multicast: true, DBV: 1}); err != nil {
			t.Fatalf("InjectChecked(bank multicast) = %v", err)
		}
		if got := n.Stats().MulticastMessages; got != 1 {
			t.Errorf("MulticastMessages = %d, want 1", got)
		}
	})

	t.Run("valid unicast succeeds", func(t *testing.T) {
		n := New(Config{Mesh: mesh})
		if err := n.InjectChecked(Message{Src: 0, Dst: 42}); err != nil {
			t.Fatalf("InjectChecked(valid) = %v", err)
		}
		if got := n.Stats().PacketsInjected; got != 1 {
			t.Errorf("PacketsInjected = %d, want 1", got)
		}
	})
}

// TestLargestVCConfigRuns builds a network at the VC-count bound (VC
// indices up to 125 in their int8 field) and delivers traffic through it.
func TestLargestVCConfigRuns(t *testing.T) {
	m := topology.New(6, 6)
	n := New(Config{Mesh: m, VCsPerClass: maxVCsPerClass, BufDepth: 2})
	for i := 0; i < 50; i++ {
		n.Inject(Message{Src: i % m.N(), Dst: (7 * i) % m.N(), Class: Data, Inject: n.Now()})
		n.Step()
	}
	if !n.Drain(10000) {
		t.Fatal("no drain")
	}
	if got := n.Stats().PacketsEjected; got == 0 {
		t.Fatal("no packets delivered")
	}
}
