package experiments

import (
	"testing"

	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestFigureArtifactsGolden pins the artifacts outside Figures 7-9 that
// simulate design points on the 10x10 mesh, at Options{Cycles: 500,
// ProfileCycles: 2000, Seed: 1}, against testdata/figure_artifacts.golden:
// any change in which points they run, how those points are built or
// profiled, or how they are normalized moves a line. Run with -update to
// rewrite the file.
func TestFigureArtifactsGolden(t *testing.T) {
	m := topology.New10x10()
	opts := Options{Cycles: 500, ProfileCycles: 2000, Seed: 1}
	checkGolden(t, "figure_artifacts.golden", goldenLines(
		artifact{"fig1", Fig1(m, opts)},
		artifact{"fig10a", Fig10a(m, opts)},
		artifact{"fig10b", Fig10b(m, opts)},
		artifact{"app", AppStudy(m, opts)},
		artifact{"loadcurve-4B-uniform", LoadLatency(m, LoadCurveDesigns(tech.Width4B), traffic.Uniform, nil, opts)},
		artifact{"shortcut-width", AblationShortcutWidth(m, []int{4, 8, 16, 32}, opts)},
	))
}
