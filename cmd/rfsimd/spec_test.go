package main

import (
	"encoding/json"
	"testing"

	"repro/internal/topology"
)

// TestSpecMulticastExpandAugments: "multicast":"expand" names a mode,
// so like vct and rf it augments the workload with multicasts, delivered
// as unicast expansions; only none (or no mode) leaves it unicast. The
// augmented workload is a different point, with its own fingerprint.
func TestSpecMulticastExpandAugments(t *testing.T) {
	m := topology.New10x10()
	compile := func(mode string) (fingerprint string, multicast bool) {
		t.Helper()
		pt, err := PointSpec{Multicast: mode, Cycles: 300}.compile(m, specLimits{}, false)
		if err != nil {
			t.Fatalf("compile multicast %q: %v", mode, err)
		}
		return pt.Fingerprint, pt.Payload.Gen.Multicast
	}
	unset, unsetMC := compile("")
	none, noneMC := compile("none")
	expand, expandMC := compile("expand")
	if unsetMC || noneMC {
		t.Errorf("GenSpec.Multicast = %v unset, %v for none; want false", unsetMC, noneMC)
	}
	if unset != none {
		t.Errorf("no mode and none fingerprint differently: %s, %s", unset, none)
	}
	if !expandMC {
		t.Error("expand's GenSpec.Multicast = false, want true")
	}
	if expand == none {
		t.Errorf("expand and none share fingerprint %s", expand)
	}
}

// TestSpecPermutationWorkload: the permutation patterns are registry
// workloads, so a request may name one.
func TestSpecPermutationWorkload(t *testing.T) {
	var p PointSpec
	if err := json.Unmarshal([]byte(`{"workload":"transpose"}`), &p); err != nil {
		t.Fatal(err)
	}
	pt, err := p.compile(topology.New10x10(), specLimits{}, false)
	if err != nil {
		t.Fatalf("compile transpose: %v", err)
	}
	if got := pt.Payload.Gen.Workload; got != "transpose" {
		t.Errorf("GenSpec.Workload = %q, want transpose", got)
	}
}
