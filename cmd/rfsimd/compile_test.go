package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/shortcut"
	"repro/internal/topology"
)

// identityRequests cover every way a point's shortcut set is derived:
// the static set at each width, in RF and in wire; the baseline; the
// adaptive set at each access-point count, with and without multicast
// augmentation; and a permutation workload.
var identityRequests = []SweepRequest{
	{Points: []PointSpec{
		{Design: "static", WidthBytes: 16, Workload: "uniform", Seed: 1, Cycles: 500},
		{Design: "static", WidthBytes: 8, Workload: "hotbidf", Seed: 2, Cycles: 500},
		{Design: "static", WidthBytes: 4, Workload: "2hotspot", Seed: 3, Cycles: 500},
		{Design: "wire-static", WidthBytes: 16, Workload: "bidf", Seed: 1, Cycles: 500},
		{Design: "wire-static", WidthBytes: 8, Workload: "unidf", Seed: 2, Cycles: 500},
		{Design: "wire-static", WidthBytes: 4, Workload: "x264", Seed: 3, Cycles: 500},
		{Design: "baseline", WidthBytes: 16, Workload: "uniform", Seed: 1, Cycles: 500},
		{Design: "baseline", WidthBytes: 8, Workload: "1hotspot", Seed: 2, Cycles: 500},
		{Design: "baseline", WidthBytes: 4, Workload: "4hotspot", Seed: 3, Cycles: 500},
	}},
	{Points: []PointSpec{
		{Design: "adaptive", WidthBytes: 4, RFRouters: 25, Workload: "hotbidf", Seed: 5, Cycles: 500},
		{Design: "adaptive", WidthBytes: 4, RFRouters: 50, Workload: "2hotspot", Seed: 6, Cycles: 500},
		{Design: "adaptive", WidthBytes: 16, RFRouters: 100, Workload: "bodytrack", Seed: 7, Cycles: 500},
	}},
	{Points: []PointSpec{
		{Design: "adaptive", WidthBytes: 4, Multicast: "rf", Workload: "uniform", Seed: 8, Cycles: 500},
		{Design: "adaptive", WidthBytes: 8, Multicast: "expand", Workload: "hotbidf", Seed: 9, Cycles: 500},
	}},
	{Points: []PointSpec{
		{Design: "static", WidthBytes: 16, Workload: "transpose", Seed: 4, Cycles: 500},
		{Design: "adaptive", WidthBytes: 4, Workload: "bitcomplement", Seed: 4, Cycles: 500},
	}},
}

// compileIdentityGolden is the first 8 bytes of the sha256 over, for
// each of identityRequests in order, its contentIdentity and then every
// compiled point ID, one per line.
const compileIdentityGolden = "03fa6d1cddc9f2be"

// TestCompileIdentityGolden pins what rfsimd compiles: the request
// identity that keys a job and the point IDs that key the result cache.
// Both content-address each point's shortcut set, so any change in
// static or adaptive selection, or in the profile an adaptive set is
// chosen from, changes the digest.
func TestCompileIdentityGolden(t *testing.T) {
	m := topology.New10x10()
	var b strings.Builder
	for i, req := range identityRequests {
		pts, err := compileRequest(req, m, specLimits{}, false)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		fmt.Fprintln(&b, contentIdentity(pts))
		for _, pt := range pts {
			fmt.Fprintln(&b, pt.ID)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]; got != compileIdentityGolden {
		t.Errorf("compile identity digest = %s, want %s", got, compileIdentityGolden)
	}
}

// repeatRequest has a point of each kind whose compile selects
// shortcuts: static, wire-static and adaptive.
var repeatRequest = SweepRequest{Points: []PointSpec{
	{Design: "static", WidthBytes: 8, Workload: "uniform", Seed: 31, Cycles: 300},
	{Design: "wire-static", WidthBytes: 4, Workload: "bidf", Seed: 32, Cycles: 300},
	{Design: "adaptive", WidthBytes: 4, Workload: "hotbidf", Seed: 33, Cycles: 300},
}}

// memoSnapshot reads the selection and profile memos' counters.
func memoSnapshot() memoStats {
	return memoStats{Selection: shortcut.MemoStats(), Profile: experiments.ProfileMemoStats()}
}

// checkMemoHits fails unless every compile between before and after hit
// the memos: selection hits rose by at least sel and profile hits by at
// least prof, and neither memo missed.
func checkMemoHits(t *testing.T, before, after memoStats, sel, prof int64) {
	t.Helper()
	if after.Selection.Misses != before.Selection.Misses || after.Profile.Misses != before.Profile.Misses {
		t.Errorf("repeat missed a memo: selection %+v -> %+v, profile %+v -> %+v",
			before.Selection, after.Selection, before.Profile, after.Profile)
	}
	if after.Selection.Hits-before.Selection.Hits < sel || after.Profile.Hits-before.Profile.Hits < prof {
		t.Errorf("repeat hit the memos too little: selection hits %d -> %d (want +%d), profile hits %d -> %d (want +%d)",
			before.Selection.Hits, after.Selection.Hits, sel, before.Profile.Hits, after.Profile.Hits, prof)
	}
}

// TestCompileRepeatHitsMemos: compiling a request a second time runs no
// selection and no profile; each static, wire-static and adaptive point
// is a selection hit, and the adaptive one a profile hit too.
func TestCompileRepeatHitsMemos(t *testing.T) {
	m := topology.New10x10()
	first, err := compileRequest(repeatRequest, m, specLimits{}, false)
	if err != nil {
		t.Fatal(err)
	}
	before := memoSnapshot()
	again, err := compileRequest(repeatRequest, m, specLimits{}, false)
	if err != nil {
		t.Fatal(err)
	}
	checkMemoHits(t, before, memoSnapshot(), 3, 1)
	if contentIdentity(again) != contentIdentity(first) {
		t.Error("a repeated compile changed the request identity")
	}
}

// TestMetricsMemoKeyedRepeat: /v1/metrics reports the memos, and a keyed
// repeat POST, which only attaches to the finished job, hits them.
func TestMetricsMemoKeyedRepeat(t *testing.T) {
	_, ts := e2eServer(t, serverConfig{dir: t.TempDir()})
	body, err := json.Marshal(repeatRequest)
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "memo-repeat")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("POST /v1/sweep: %v", err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		if _, err := checkNDJSON(blob, len(repeatRequest.Points), false); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("status %d, %v:\n%s", resp.StatusCode, err, blob)
		}
	}
	memo := func() memoStats {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatalf("GET /v1/metrics: %v", err)
		}
		defer resp.Body.Close()
		var snap struct {
			Memo *memoStats `json:"memo"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || snap.Memo == nil {
			t.Fatalf("metrics carry no memo block (decode error %v)", err)
		}
		return *snap.Memo
	}
	post()
	before := memo()
	post()
	checkMemoHits(t, before, memo(), 3, 1)
}

// BenchmarkCompileRequest times compiling a one-point request with warm
// memos, as a repeated POST does: the static point reads the selection
// memo, the adaptive point the profile and the selection memo.
func BenchmarkCompileRequest(b *testing.B) {
	m := topology.New10x10()
	for _, c := range []struct {
		name string
		spec PointSpec
	}{
		{"static", PointSpec{Design: "static", WidthBytes: 4, Workload: "uniform", Seed: 1, Cycles: 2000}},
		{"adaptive", PointSpec{Design: "adaptive", WidthBytes: 4, Workload: "hotbidf", Seed: 1, Cycles: 2000}},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := SweepRequest{Points: []PointSpec{c.spec}}
			if _, err := compileRequest(req, m, specLimits{}, false); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compileRequest(req, m, specLimits{}, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
