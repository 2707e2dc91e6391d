package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
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

// TestSweepFaultFields: the fault fields of a spec reach the simulation.
// A keyed request with mesh_ber and rf_ber set streams a result with
// corrupted flits, and its repeat, which attaches to the finished job,
// streams byte-identical outcome lines. The removed integrity and
// watchdog fields are unknown fields: a request carrying either gets a
// 400 that names it.
func TestSweepFaultFields(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{dir: t.TempDir()})
	body, err := json.Marshal(SweepRequest{Points: []PointSpec{{
		Design: "static", Workload: "uniform", Cycles: 2000, Seed: 5,
		MeshBER: 2e-3, RFBER: 1e-2, FaultSeed: 9,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() [][]byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "fault-fields")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("POST /v1/sweep: %v", err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		recs, err := checkNDJSON(blob, 1, false)
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("status %d, %v:\n%s", resp.StatusCode, err, blob)
		}
		var outcomes [][]byte
		for i, line := range bytes.Split(bytes.TrimSpace(blob), []byte("\n")) {
			if recs[i].Type != "outcome" {
				continue
			}
			if s := recs[i].Result.Stats; s.FlitsCorrupted == 0 {
				t.Errorf("point %d corrupted no flits under mesh_ber/rf_ber", recs[i].Index)
			}
			outcomes = append(outcomes, line)
		}
		return outcomes
	}
	first, again := post(), post()
	if len(first) != 1 || len(again) != 1 {
		t.Fatalf("outcome lines: %d then %d, want 1 each", len(first), len(again))
	}
	if !bytes.Equal(first[0], again[0]) {
		t.Errorf("repeat outcome line differs:\n%s\n%s", first[0], again[0])
	}

	for _, field := range []string{"integrity", "watchdog"} {
		raw := `{"points":[{"cycles":300,"` + field + `":true}]}`
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", raw, err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(blob, []byte(field)) {
			t.Errorf("%q: status %d, body %s; want a 400 naming the field", field, resp.StatusCode, blob)
		}
	}
}
