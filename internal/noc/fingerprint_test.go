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
		EscapeTimeout: 16, ShortcutWidthBytes: tech.ShortcutWidthBytes,
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

// TestFingerprintPinned pins the digests of configs that reach every
// hashed slot, including the multicast, VCT, wire, local-channel and
// backoff slots whose values no config varies. Point IDs, job
// identities, result-cache keys and crash-dump names are all derived
// from these digests, so a moved digest orphans every stored result.
func TestFingerprintPinned(t *testing.T) {
	m := topology.New10x10()
	sc := []shortcut.Edge{{From: 0, To: 99}, {From: 90, To: 9}}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"width-16B", Config{Mesh: m, Width: tech.Width16B}, "8406e0b24bfc8a0fc59785c63d3e60d6"},
		{"width-8B", Config{Mesh: m, Width: tech.Width8B}, "c10ce8b6c22cf12f0612141f567093f5"},
		{"width-4B", Config{Mesh: m, Width: tech.Width4B}, "063cbd6977eb615eb0aa0f5555cb0629"},
		{"vct-multicast", Config{Mesh: m, Multicast: MulticastVCT}, "9460a7adafed872e983a8e0fabee74ce"},
		{"rf-multicast-shortcuts", Config{Mesh: m, Width: tech.Width4B, Multicast: MulticastRF,
			Shortcuts: sc, RFEnabled: []int{0, 9, 45, 90, 99}}, "be4b01ed45120c82058e54ee56118d95"},
		{"wire-shortcuts", Config{Mesh: m, Width: tech.Width8B, Shortcuts: sc, WireShortcuts: true}, "9e48a5a13d1809f8c38f09b5a5eec72f"},
		{"mesh-ber", Config{Mesh: m, Fault: FaultConfig{MeshBER: 1e-4, RetryLimit: 3}}, "5851ba4dcbc07496b055e1f462613518"},
	} {
		if got := c.cfg.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
