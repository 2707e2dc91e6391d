package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/topology"
)

// studyArtifactsGolden is the first 8 bytes of the sha256 over the %v
// renderings of the VC x depth ablation, the escape-timeout ablation and
// the routing study at Options{Cycles: 2000, ProfileCycles: 2000, Seed:
// 1, DrainCycles: 20000}, joined by "|".
const studyArtifactsGolden = "33d22015661a8a0b"

// TestStudyArtifactsGolden pins the three router-configuration studies
// of -artifact ablations: any change in which points they run, how those
// points are configured, or which latency they report changes the
// digest.
func TestStudyArtifactsGolden(t *testing.T) {
	m := topology.New10x10()
	o := Options{Cycles: 2000, ProfileCycles: 2000, Seed: 1, DrainCycles: 20000}
	s := fmt.Sprintf("%v|%v|%v",
		AblationVCConfig(m, []int{1, 2, 4, 8}, []int{2, 4, 8}, o),
		AblationEscapeVC(m, []int64{4, 16, 64, 256}, o),
		RoutingStudy(m, o))
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]; got != studyArtifactsGolden {
		t.Errorf("study artifacts digest = %s, want %s", got, studyArtifactsGolden)
	}
}
