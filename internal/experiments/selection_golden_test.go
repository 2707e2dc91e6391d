package experiments

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// adaptiveSelectionsGolden is the sha256 over the edge lists of every
// distinct adaptive shortcut selection a default-options Summary makes
// (Figures 7, 8 and 9), one "key: edges" line each, sorted by key.
const adaptiveSelectionsGolden = "7cd9af79ade00c06e947e83861103f2f9675b3888e46294581220ac17019800f"

// TestAdaptiveShortcutsGolden pins the application-specific selections
// behind the paper's claims: any change to the selectors that picks a
// different edge, or breaks a tie differently, changes the digest.
func TestAdaptiveShortcutsGolden(t *testing.T) {
	m := topology.New10x10()
	opts := Options{}.WithDefaults()
	type selection struct {
		key     string
		design  Design
		profile func() traffic.Generator
	}
	seen := map[string]bool{}
	var sels []selection
	add := func(d Design, profile func() traffic.Generator) {
		if d.Kind != Adaptive {
			return
		}
		// The key buildCached memoizes the selection under.
		key := fmt.Sprintf("%s|rate%.6f|seed%d|prof%d|budget%d|rf%d",
			profile().Name(), opts.Rate, opts.Seed, opts.ProfileCycles, d.budget(), d.RFRouters)
		if !seen[key] {
			seen[key] = true
			sels = append(sels, selection{key, d, profile})
		}
	}
	for _, pat := range traffic.Patterns() {
		for _, d := range append(Fig7Designs(), Fig8Designs()...) {
			add(d, func() traffic.Generator {
				return traffic.NewProbabilistic(m, pat, opts.Rate, opts.Seed)
			})
		}
		for _, c := range fig9Configs() {
			mk := func() traffic.Generator {
				base := traffic.NewProbabilistic(m, pat, opts.Rate, opts.Seed)
				return traffic.NewMulticastAugment(m, base, opts.MulticastRate, c.locality, opts.Seed)
			}
			add(c.design, mk)
		}
	}
	if len(sels) != 28 {
		t.Fatalf("a Summary makes %d distinct adaptive selections, want 28", len(sels))
	}
	lines := make([]string, len(sels))
	forEach(len(sels), func(i int) {
		s := sels[i]
		freq := traffic.FrequencyMatrix(s.profile(), m.N(), opts.ProfileCycles)
		edges := AdaptiveShortcuts(m, m.RFPlacement(s.design.RFRouters), freq, s.design.budget())
		lines[i] = fmt.Sprintf("%s: %v\n", s.key, edges)
	})
	sort.Strings(lines)
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, ""))))
	if sum != adaptiveSelectionsGolden {
		t.Errorf("adaptive selection digest %s, want %s; selections:\n%s",
			sum, adaptiveSelectionsGolden, strings.Join(lines, ""))
	}
}
