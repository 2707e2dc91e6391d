package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// figureArtifactsGolden is the first 8 bytes of the sha256 over the
// concatenated %v renderings of Fig1, Fig10a, Fig10b, AppStudy, the 4 B
// uniform load curves and the shortcut-width ablation at
// Options{Cycles: 500, ProfileCycles: 2000, Seed: 1}. %v prints floats
// in their shortest round-trip form, so the digest pins every value bit
// for bit.
const figureArtifactsGolden = "b49d97e8f7e6a7ce"

// TestFigureArtifactsGolden pins the artifacts outside Figures 7-9 that
// simulate design points on the 10x10 mesh: any change in which points
// they run, how those points are built or profiled, or how they are
// normalized changes the digest.
func TestFigureArtifactsGolden(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 500, ProfileCycles: 2000, Seed: 1}
	h := sha256.New()
	for _, v := range []any{
		Fig1(m, opts),
		Fig10a(m, opts),
		Fig10b(m, opts),
		AppStudy(m, opts),
		LoadLatency(m, LoadCurveDesigns(tech.Width4B), traffic.Uniform, nil, opts),
		AblationShortcutWidth(m, []int{4, 8, 16, 32}, opts),
	} {
		fmt.Fprintf(h, "%v", v)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != figureArtifactsGolden {
		t.Errorf("figure artifacts digest = %s, want %s", got, figureArtifactsGolden)
	}
}
