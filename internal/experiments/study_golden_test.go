package experiments

import (
	"testing"

	"repro/internal/topology"
)

// TestStudyArtifactsGolden pins the three router-configuration studies
// of -artifact ablations, at Options{Cycles: 2000, ProfileCycles: 2000,
// Seed: 1, DrainCycles: 20000}, against testdata/study_artifacts.golden:
// any change in which points they run, how those points are configured,
// or which latency they report moves a line. Run with -update to rewrite
// the file.
func TestStudyArtifactsGolden(t *testing.T) {
	m := topology.New10x10()
	o := Options{Cycles: 2000, ProfileCycles: 2000, Seed: 1, DrainCycles: 20000}
	checkGolden(t, "study_artifacts.golden", goldenLines(
		artifact{"vc-depth", AblationVCConfig(m, []int{1, 2, 4, 8}, []int{2, 4, 8}, o)},
		artifact{"escape-timeout", AblationEscapeVC(m, []int64{4, 16, 64, 256}, o)},
		artifact{"routing", RoutingStudy(m, o)},
	))
}
