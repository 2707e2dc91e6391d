package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/topology"
)

// drive runs uniform random unicast traffic against a fresh network
// with the given observers attached and drains it.
func drive(t *testing.T, cfg noc.Config, cycles int, rate float64, seed int64, observers ...noc.Observer) *noc.Network {
	t.Helper()
	n := noc.New(cfg)
	for _, o := range observers {
		n.AttachObserver(o)
	}
	rng := rand.New(rand.NewSource(seed))
	N := cfg.Mesh.N()
	for i := 0; i < cycles; i++ {
		if rng.Float64() < rate {
			src, dst := rng.Intn(N), rng.Intn(N)
			if src != dst {
				n.Inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: n.Now()})
			}
		}
		n.Step()
	}
	if !n.Drain(500000) {
		t.Fatal("network failed to drain")
	}
	return n
}

func cfg10x10() noc.Config {
	return noc.Config{Mesh: topology.New10x10(), Width: tech.Width8B}
}

// The latency recorder's histogram totals must agree with the network's
// own latency counters: identical populations, identical sums.
func TestLatencyRecorderMatchesStats(t *testing.T) {
	rec := obs.NewLatencyRecorder()
	n := drive(t, cfg10x10(), 6000, 0.5, 11, rec)
	s := n.Stats()
	if rec.Packets.Count() != s.PacketsEjected {
		t.Errorf("packet samples = %d, stats = %d", rec.Packets.Count(), s.PacketsEjected)
	}
	if rec.Flits.Count() != s.FlitsEjected {
		t.Errorf("flit samples = %d, stats = %d", rec.Flits.Count(), s.FlitsEjected)
	}
	if got, want := rec.Flits.Mean(), s.AvgFlitLatency(); got != want {
		t.Errorf("flit mean = %f, stats mean = %f", got, want)
	}
	sum := rec.Packets.Summary()
	if !(sum.P50 <= sum.P90 && sum.P90 <= sum.P99 && sum.P99 <= sum.Max) {
		t.Errorf("percentiles out of order: %+v", sum)
	}
	if sum.P50 < 5 {
		t.Errorf("implausible p50 %d: minimum head latency is 5 cycles/hop", sum.P50)
	}
	if rec.Render() == "" {
		t.Error("empty render")
	}
}

// The timeline's per-window flit totals must sum to the network's
// router-traversal counter, and both export formats must round-trip.
func TestLinkTimelineWindowsAndExport(t *testing.T) {
	tl := obs.NewLinkTimeline(500)
	n := drive(t, cfg10x10(), 2600, 0.4, 5, tl)

	var csvBuf bytes.Buffer
	if err := tl.WriteCSV(&csvBuf, n.Now()); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	samples := tl.Samples()
	if len(samples) < 5 {
		t.Fatalf("expected >= 5 windows, got %d", len(samples))
	}
	for i, s := range samples {
		if i > 0 && s.Start != samples[i-1].End {
			t.Errorf("window %d not contiguous: starts %d after end %d", i, s.Start, samples[i-1].End)
		}
	}
	var total int64
	for _, s := range samples {
		for r := range s.Flits {
			for p := 0; p < noc.NumPorts; p++ {
				total += s.Flits[r][p]
			}
		}
	}
	if total != n.Stats().RouterTraversals {
		t.Errorf("timeline total %d != router traversals %d", total, n.Stats().RouterTraversals)
	}

	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if lines[0] != "window_start,window_end,router,port,flits,utilization" {
		t.Errorf("bad CSV header: %q", lines[0])
	}
	if len(lines) < 100 {
		t.Errorf("suspiciously small CSV: %d rows", len(lines))
	}

	var jsonBuf bytes.Buffer
	if err := tl.WriteJSON(&jsonBuf, n.Now()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Window  int64              `json:"window_cycles"`
		Ports   []string           `json:"ports"`
		Samples []obs.WindowSample `json:"samples"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if doc.Window != 500 || len(doc.Ports) != noc.NumPorts || len(doc.Samples) != len(samples) {
		t.Errorf("JSON doc mismatch: window=%d ports=%d samples=%d", doc.Window, len(doc.Ports), len(doc.Samples))
	}

	_, _, _, util := tl.PeakUtilization()
	if util <= 0 || util > float64(cfg10x10().Mesh.N()) {
		t.Errorf("implausible peak utilization %f", util)
	}
}

// A timeline's Total counts every flit on the link it crossed: a 3-flit
// message four hops east loads each eastbound link and the ejection
// port with 3 flits and leaves off-path links idle.
func TestTimelineTotalCountsFlits(t *testing.T) {
	m := topology.New10x10()
	tl := obs.NewLinkTimeline(7)
	n := noc.New(noc.Config{Mesh: m, Width: tech.Width16B})
	n.AttachObserver(tl)
	n.Inject(noc.Message{Src: m.ID(2, 4), Dst: m.ID(6, 4), Class: noc.Data, Inject: 0})
	if !n.Drain(10000) {
		t.Fatal("no drain")
	}
	u := tl.Total(n.Now())
	for x := 2; x < 6; x++ {
		if got := u.Flits[m.ID(x, 4)][noc.PortEast]; got != 3 {
			t.Errorf("link (%d,4)->E carried %d flits, want 3", x, got)
		}
	}
	if got := u.Flits[m.ID(2, 4)][noc.PortNorth]; got != 0 {
		t.Errorf("off-path link carried %d flits", got)
	}
	if got := u.Flits[m.ID(6, 4)][noc.PortLocal]; got != 3 {
		t.Errorf("ejection port carried %d flits, want 3", got)
	}
}

// Mesh-link utilization stays in [0,1] and the row-5 eastbound
// corridor a stream crosses is the hottest link.
func TestTimelineUtilizationAndHottest(t *testing.T) {
	m := topology.New10x10()
	tl := obs.NewLinkTimeline(1000)
	n := noc.New(noc.Config{Mesh: m, Width: tech.Width16B})
	n.AttachObserver(tl)
	for i := 0; i < 50; i++ {
		n.Inject(noc.Message{Src: m.ID(0, 5), Dst: m.ID(9, 5), Class: noc.Data, Inject: n.Now()})
		n.Run(10)
	}
	if !n.Drain(50000) {
		t.Fatal("no drain")
	}
	u := tl.Total(n.Now())
	var busiest float64
	for r := range u.Flits {
		for p := noc.PortNorth; p <= noc.PortWest; p++ {
			util := u.Utilization(r, p)
			if util < 0 || util > 1 {
				t.Errorf("link %d port %d utilization = %v, want [0,1]", r, p, util)
			}
			busiest = max(busiest, util)
		}
	}
	if busiest == 0 {
		t.Error("no mesh link carried a flit")
	}
	hot := u.HottestLinks(m, 3)
	if len(hot) != 3 {
		t.Fatalf("hottest = %v", hot)
	}
	if !strings.Contains(hot[0], "->E") || !strings.Contains(hot[0], ",5)") {
		t.Errorf("hottest link %q not on the eastbound corridor", hot[0])
	}
}

// The heatmap has one row per mesh row and shows the load it saw.
func TestTimelineHeatmapRenders(t *testing.T) {
	m := topology.New10x10()
	tl := obs.NewLinkTimeline(1000)
	n := noc.New(noc.Config{Mesh: m, Width: tech.Width4B})
	n.AttachObserver(tl)
	for i := 0; i < 200; i++ {
		n.Inject(noc.Message{Src: m.ID(1, 1), Dst: m.ID(8, 8), Class: noc.Data, Inject: n.Now()})
		n.Run(5)
	}
	n.Drain(100000)
	hm := tl.Total(n.Now()).Heatmap(m)
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("heatmap has %d rows, want 10", len(lines))
	}
	if !strings.ContainsAny(hm, ".:-=+*#%@") {
		t.Error("heatmap shows no load at all")
	}
}

// A healthy network must pass every audit.
func TestInvariantCheckerCleanRun(t *testing.T) {
	chk := obs.NewInvariantChecker()
	chk.Every = 64
	chk.Fail = func(format string, args ...any) {
		t.Fatalf("unexpected violation: "+format, args...)
	}
	n := drive(t, cfg10x10(), 4000, 0.6, 23, chk)
	chk.Check(n)
	if chk.Audits < 60 {
		t.Errorf("expected >= 60 audits, got %d", chk.Audits)
	}
	if chk.Violations != 0 {
		t.Errorf("violations on a healthy run: %d", chk.Violations)
	}
}

// Negative test: a deliberately corrupted flit counter must be caught
// at the next audit, with a conservation message.
func TestInvariantCheckerDetectsSeededCorruption(t *testing.T) {
	chk := obs.NewInvariantChecker()
	chk.Every = 32
	var got string
	chk.Fail = func(format string, args ...any) { got = fmt.Sprintf(format, args...) }

	n := noc.New(cfg10x10())
	n.AttachObserver(chk)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if src, dst := rng.Intn(100), rng.Intn(100); src != dst {
			n.Inject(noc.Message{Src: src, Dst: dst, Class: noc.Data, Inject: n.Now()})
		}
		n.Step()
	}
	if chk.Violations != 0 {
		t.Fatalf("violation before fault injection: %q", got)
	}
	n.CorruptFlitCounter(+3) // seeded fault: 3 flits appear from nowhere
	for i := 0; i < 64 && chk.Violations == 0; i++ {
		n.Step()
	}
	if chk.Violations == 0 {
		t.Fatal("checker missed the seeded counter corruption")
	}
	if !strings.Contains(got, "conservation") || !strings.Contains(got, "+3") {
		t.Errorf("unexpected violation message: %q", got)
	}
}

// The default Fail must panic so corrupted simulations cannot publish
// results silently.
func TestInvariantCheckerPanicsByDefault(t *testing.T) {
	chk := obs.NewInvariantChecker()
	n := noc.New(cfg10x10())
	n.AttachObserver(chk)
	n.Inject(noc.Message{Src: 0, Dst: 42, Class: noc.Request, Inject: 0})
	n.CorruptFlitCounter(-1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on violation")
		}
		if !strings.Contains(fmt.Sprint(r), "invariant violation") {
			t.Errorf("unexpected panic payload: %v", r)
		}
	}()
	n.Run(noc.NumPorts) // short: first audit is at the checker's Check of cycle 1024
	chk.Check(n)
}

// A stalled head flit beyond the horizon must trip the forward-progress
// check and include the stuck router's dump.
func TestInvariantCheckerForwardProgress(t *testing.T) {
	chk := obs.NewInvariantChecker()
	chk.Every = 16
	chk.DeadlockHorizon = 8 // absurdly tight: any in-flight packet trips it
	var got string
	chk.Fail = func(format string, args ...any) { got = fmt.Sprintf(format, args...) }

	n := noc.New(cfg10x10())
	n.AttachObserver(chk)
	// One long packet crossing the whole mesh keeps a head in flight
	// well past 8 cycles.
	n.Inject(noc.Message{Src: 0, Dst: 99, Class: noc.MemLine, Inject: 0})
	n.Run(64)
	if chk.Violations == 0 {
		t.Fatal("tight horizon not tripped by an in-flight packet")
	}
	if !strings.Contains(got, "forward progress") || !strings.Contains(got, "router") {
		t.Errorf("unexpected message: %q", got)
	}
}

func TestHorizonForDrainBudget(t *testing.T) {
	cases := []struct{ drain, want int64 }{
		{0, 200_000},       // degenerate budget keeps the floor
		{100_000, 200_000}, // short test budgets never tighten below the floor
		{400_000, 200_000}, // the default drain budget reproduces the default horizon
		{1_000_000, 500_000},
		{10_000_000, 5_000_000},
	}
	for _, tc := range cases {
		if got := obs.HorizonForDrainBudget(tc.drain); got != tc.want {
			t.Errorf("HorizonForDrainBudget(%d) = %d, want %d", tc.drain, got, tc.want)
		}
	}
	c := obs.NewInvariantCheckerForDrain(1_000_000)
	if c.DeadlockHorizon != 500_000 || c.Every != 1024 {
		t.Errorf("derived checker misconfigured: %+v", c)
	}
}
