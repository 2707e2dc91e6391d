package noc

import (
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestFingerprintStable: a zero config and its explicit defaults hash
// identically, and the digest is deterministic across calls.
func TestFingerprintStable(t *testing.T) {
	zero := Config{}
	explicit := Config{
		Mesh:  topology.New10x10(),
		Width: tech.Width16B, VCsPerClass: 8, BufDepth: 4,
		EscapeTimeout: 16, MulticastEpoch: 256, VCTTableSize: 64,
		WireMMPerCycle: 2.5, LocalSpeedup: 1,
		ShortcutWidthBytes: tech.ShortcutWidthBytes,
	}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Error("zero config and explicit defaults fingerprint differently")
	}
	if zero.Fingerprint() != zero.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	if len(zero.Fingerprint()) != 32 {
		t.Errorf("fingerprint length %d, want 32 hex chars", len(zero.Fingerprint()))
	}
}

// TestFingerprintSensitivity: every semantically meaningful mutation
// must change the digest — a collision here silently serves one
// design's results for another.
func TestFingerprintSensitivity(t *testing.T) {
	base := Config{Mesh: topology.New10x10()}
	fp := base.Fingerprint()
	mutations := map[string]func(c *Config){
		"width":          func(c *Config) { c.Width = tech.Width4B },
		"vcs":            func(c *Config) { c.VCsPerClass = 4 },
		"buf-depth":      func(c *Config) { c.BufDepth = 8 },
		"escape-timeout": func(c *Config) { c.EscapeTimeout = 32 },
		"shortcuts":      func(c *Config) { c.Shortcuts = []shortcut.Edge{{From: 0, To: 99}} },
		"wire-shortcuts": func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 0, To: 99}}
			c.WireShortcuts = true
		},
		"shortcut-order": func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 90, To: 9}, {From: 0, To: 99}}
		},
		"rf-enabled":   func(c *Config) { c.RFEnabled = []int{0, 5, 9} },
		"multicast":    func(c *Config) { c.Multicast = MulticastVCT },
		"mesh-ber":     func(c *Config) { c.Fault.MeshBER = 1e-6 },
		"fault-seed":   func(c *Config) { c.Fault.Seed = 99 },
		"integrity":    func(c *Config) { c.Integrity = true },
		"watchdog":     func(c *Config) { c.Watchdog = WatchdogConfig{Enabled: true} },
		"adaptive-rte": func(c *Config) { c.AdaptiveRouting = true },
		"mesh-size":    func(c *Config) { c.Mesh = topology.New(8, 8) },
	}
	seen := map[string]string{fp: "base"}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		got := c.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("mutation %q collides with %q (fingerprint %s)", name, prev, got)
		}
		seen[got] = name
	}
}
