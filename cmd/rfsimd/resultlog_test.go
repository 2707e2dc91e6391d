package main

// Unit tests of the durable result log: torn-tail and mid-file
// corruption recovery, header identity, the request the header carries
// for boot replay, open/settled/sealed classification, and the 'X'
// frame staying out of everything a client is served.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/obs"
)

func testHeader(job string) resultLogHeader {
	return resultLogHeader{Job: job, Req: "req-" + job, Points: 3,
		Spec: json.RawMessage(`{"points":[{"seed":1}]}`), Accepted: 42}
}

// writeLog creates a log at path with the given frames after the header.
func writeLog(t *testing.T, path string, hdr resultLogHeader, frames ...byte) {
	t.Helper()
	lg, _, err := openResultLog(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for i, kind := range frames {
		var payload []byte
		if kind != resultFrameSettled {
			payload = []byte(fmt.Sprintf(`{"type":"outcome","seq":%d,"index":%d}`, i+1, i))
		}
		if err := appendResultFrame(lg, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
}

func mustLoad(t *testing.T, path string) resultLogData {
	t.Helper()
	d, err := loadResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestResultLogTornTail: a crash mid-append leaves half a frame; reopen
// keeps every whole frame, truncates the rest so the next append cannot
// fuse with it, and the registry counts the truncation.
func TestResultLogTornTail(t *testing.T) {
	dir := t.TempDir()
	hdr := testHeader("a")
	path := filepath.Join(dir, hdr.Job+resultLogSuffix)
	writeLog(t, path, hdr, resultFrameOutcome, resultFrameOutcome)
	whole, _ := os.Stat(path)

	var torn bytes.Buffer
	frame.Write(&torn, resultFrameOutcome, []byte(`{"type":"outcome","index":2}`))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn.Bytes()[:torn.Len()/2])
	f.Close()

	if d := mustLoad(t, path); len(d.lines) != 2 || d.torn == 0 || d.good != whole.Size() {
		t.Fatalf("torn log parsed to %d lines, torn %d, good %d; want 2 lines, torn > 0, good %d",
			len(d.lines), d.torn, d.good, whole.Size())
	}

	m := obs.NewServiceMetrics()
	reg := newJobRegistry(dir, 0, m)
	e, _, err := reg.attach(hdr.Job, hdr.Req, hdr.Points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.startProducer(e); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().ResultTornTruncated; got != 1 {
		t.Errorf("ResultTornTruncated = %d, want 1", got)
	}
	if st, _ := os.Stat(path); st.Size() != whole.Size() {
		t.Errorf("reopened log is %d bytes, want the %d-byte good prefix", st.Size(), whole.Size())
	}
	reg.appendOutcome(e, outcomeLine{Type: "outcome", Index: 2})
	reg.endProducer(e, false)
	reg.closeAll()
	if d := mustLoad(t, path); len(d.lines) != 3 || d.torn != 0 {
		t.Fatalf("append after truncation: %d lines, torn %d; want 3 lines, torn 0", len(d.lines), d.torn)
	}
}

// TestResultLogCorruptMidFile: frames are not self-synchronizing, so a
// corrupt frame ends the good prefix and nothing after it is served.
func TestResultLogCorruptMidFile(t *testing.T) {
	hdr := testHeader("b")
	path := filepath.Join(t.TempDir(), hdr.Job+resultLogSuffix)
	writeLog(t, path, hdr, resultFrameOutcome, resultFrameOutcome, resultFrameOutcome)
	data, _ := os.ReadFile(path)
	// Flip a payload byte of the second outcome frame.
	data[frameOffset(t, data, 2)+10] ^= 0xff
	os.WriteFile(path, data, 0o644)

	d := mustLoad(t, path)
	if len(d.lines) != 1 || d.torn == 0 {
		t.Fatalf("corrupt log parsed to %d lines, torn %d; want 1 line and a torn tail", len(d.lines), d.torn)
	}
	if d.good != int64(frameOffset(t, data, 2)) {
		t.Errorf("good prefix %d bytes, want it to end where the corrupt frame starts (%d)", d.good, frameOffset(t, data, 2))
	}
}

// frameOffset returns the byte offset where frame n (0 = header) starts.
func frameOffset(t *testing.T, data []byte, n int) int {
	t.Helper()
	r := bytes.NewReader(data)
	for i := 0; i < n; i++ {
		if _, _, err := frame.Read(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	return len(data) - r.Len()
}

// TestResultLogHeaderMismatchRefused: reopening a log for a different
// job or a different request body is refused, never appended to.
func TestResultLogHeaderMismatchRefused(t *testing.T) {
	hdr := testHeader("c")
	path := filepath.Join(t.TempDir(), hdr.Job+resultLogSuffix)
	writeLog(t, path, hdr, resultFrameOutcome)
	before, _ := os.ReadFile(path)
	for _, bad := range []resultLogHeader{
		{Job: "other", Req: hdr.Req, Points: hdr.Points},
		{Job: hdr.Job, Req: "other", Points: hdr.Points},
	} {
		if lg, _, err := openResultLog(path, bad); err == nil {
			lg.Close()
			t.Errorf("openResultLog accepted header %+v over job %s req %s", bad, hdr.Job, hdr.Req)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Error("a refused open modified the log")
	}
}

// TestResultLogHeaderSpec: the header round-trips the accepted request
// and its accept time; a header written before the spec field existed
// parses, but its log is never replayable.
func TestResultLogHeaderSpec(t *testing.T) {
	dir := t.TempDir()
	hdr := testHeader("d")
	path := filepath.Join(dir, hdr.Job+resultLogSuffix)
	writeLog(t, path, hdr)
	d := mustLoad(t, path)
	if d.header.Job != hdr.Job || d.header.Req != hdr.Req || d.header.Points != hdr.Points ||
		!bytes.Equal(d.header.Spec, hdr.Spec) || d.header.Accepted != hdr.Accepted {
		t.Fatalf("header round-trip: got %+v, want %+v", d.header, hdr)
	}
	if !d.open() {
		t.Error("fresh log with a spec is not open")
	}

	old := filepath.Join(dir, "old"+resultLogSuffix)
	var b bytes.Buffer
	frame.Write(&b, resultFrameHeader, []byte(`{"job":"old","req":"r","points":1}`))
	frame.Write(&b, resultFrameOutcome, []byte(`{"type":"outcome","seq":1,"index":0}`))
	os.WriteFile(old, b.Bytes(), 0o644)
	d = mustLoad(t, old)
	if d.header.Job != "old" || len(d.header.Spec) != 0 || len(d.lines) != 1 {
		t.Fatalf("old header parsed to %+v with %d lines", d.header, len(d.lines))
	}
	if d.open() {
		t.Error("a log without a spec is classified open: boot replay would have nothing to run")
	}
}

// TestResultLogClassification: open/settled/sealed follow the last
// frame, and an 'O' appended after an 'X' opens the log again.
func TestResultLogClassification(t *testing.T) {
	dir := t.TempDir()
	O, X, S := byte(resultFrameOutcome), byte(resultFrameSettled), byte(resultFrameSummary)
	cases := []struct {
		name                  string
		frames                []byte
		open, settled, sealed bool
		lines                 int
	}{
		{"header-only", nil, true, false, false, 0},
		{"outcomes", []byte{O, O}, true, false, false, 2},
		{"settled", []byte{O, X}, false, true, false, 1},
		{"settled-twice", []byte{X, X}, false, true, false, 0},
		{"reopened", []byte{O, X, O}, true, false, false, 2},
		{"sealed", []byte{O, O, S}, false, false, true, 3},
		{"sealed-after-settle", []byte{O, X, O, S}, false, false, true, 3},
	}
	for i, tc := range cases {
		path := filepath.Join(dir, fmt.Sprintf("%d%s", i, resultLogSuffix))
		writeLog(t, path, testHeader(fmt.Sprint(i)), tc.frames...)
		d := mustLoad(t, path)
		if d.open() != tc.open || d.settled != tc.settled || d.done != tc.sealed || len(d.lines) != tc.lines {
			t.Errorf("%s: open=%v settled=%v sealed=%v lines=%d, want %v %v %v %d", tc.name,
				d.open(), d.settled, d.done, len(d.lines), tc.open, tc.settled, tc.sealed, tc.lines)
		}
	}
	// Nothing may follow the summary.
	path := filepath.Join(dir, "after-seal"+resultLogSuffix)
	writeLog(t, path, testHeader("z"), S, X)
	if _, err := loadResultLog(path); err == nil {
		t.Error("a frame after the summary parsed")
	}
}

// TestResultLogSettleNeverServed: an 'X' has no seq and never reaches
// a client — not in memory, not in the reloaded log, not on a stream —
// and the next producer's outcome takes the next seq after it.
func TestResultLogSettleNeverServed(t *testing.T) {
	dir := t.TempDir()
	reg := newJobRegistry(dir, 0, obs.NewServiceMetrics())
	hdr := testHeader(jobIDFromKey("e")) // a servable ID
	e, _, err := reg.attach(hdr.Job, hdr.Req, 2, hdr.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.startProducer(e); err != nil {
		t.Fatal(err)
	}
	reg.appendOutcome(e, outcomeLine{Type: "outcome", Index: 0})
	reg.endProducer(e, true) // client went away: settled incomplete
	if d := mustLoad(t, reg.path(e.id)); !d.settled || d.open() || len(d.lines) != 1 {
		t.Fatalf("after settle: settled=%v open=%v lines=%d, want settled with 1 line", d.settled, d.open(), len(d.lines))
	}

	if err := reg.startProducer(e); err != nil {
		t.Fatal(err)
	}
	if !reg.appendOutcome(e, outcomeLine{Type: "outcome", Index: 1}) {
		t.Fatal("second producer's outcome not appended")
	}
	var li streamLine
	json.Unmarshal(e.snapshotFrom(1).lines[0], &li)
	if li.Seq != 2 {
		t.Errorf("outcome after an X got seq %d, want 2", li.Seq)
	}
	reg.endProducer(e, false)
	reg.closeAll()

	check := func(where string, lines [][]byte) {
		t.Helper()
		if len(lines) != 2 {
			t.Fatalf("%s: %d lines, want 2", where, len(lines))
		}
		for i, l := range lines {
			var rec streamLine
			if err := json.Unmarshal(l, &rec); err != nil || rec.Type != "outcome" || rec.Seq != int64(i+1) {
				t.Errorf("%s: line %d = %q, want outcome seq %d", where, i, l, i+1)
			}
		}
	}
	check("memory", e.snapshotFrom(0).lines)
	d := mustLoad(t, reg.path(e.id))
	if !d.open() {
		t.Error("an outcome after the X did not reopen the log")
	}
	check("reloaded", d.lines)

	_, ts := e2eServer(t, serverConfig{dir: dir})
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + e.id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(t, resp)
	var served [][]byte
	for _, rec := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var sl streamLine
		json.Unmarshal(rec, &sl)
		switch sl.Type {
		case "outcome":
			served = append(served, rec)
		case "job", "idle":
		default:
			t.Errorf("stream served %q", rec)
		}
	}
	check("stream", served)
}

// TestResultLogConcurrentProducers: two producers racing over one job
// (a live POST and a boot replay) log each index exactly once under
// contiguous seqs, while readers snapshot and the loser settles.
func TestResultLogConcurrentProducers(t *testing.T) {
	const points = 64
	reg := newJobRegistry(t.TempDir(), 0, obs.NewServiceMetrics())
	hdr := testHeader("f")
	e, _, err := reg.attach(hdr.Job, hdr.Req, points, hdr.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		if err := reg.startProducer(e); err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < points; i++ {
				idx := i
				if p == 1 {
					idx = points - 1 - i
				}
				reg.appendOutcome(e, outcomeLine{Type: "outcome", Index: idx})
			}
			reg.appendSummary(e, summaryLine{Type: "summary", Points: points})
			reg.endProducer(e, true)
		}(p)
		go func() {
			defer wg.Done()
			reg.addReader(e)
			defer reg.dropReader(e)
			for c := 0; ; {
				snap := e.waitChange(c, func() bool { return false })
				c += len(snap.lines)
				if snap.done || snap.active == 0 {
					return
				}
			}
		}()
	}
	wg.Wait()
	reg.closeAll()
	d := mustLoad(t, reg.path(e.id))
	if !d.done || d.settled || len(d.lines) != points+1 {
		t.Fatalf("log: sealed=%v settled=%v lines=%d, want sealed with %d lines", d.done, d.settled, len(d.lines), points+1)
	}
	seen := map[int]bool{}
	for i, l := range d.lines[:points] {
		var rec streamLine
		json.Unmarshal(l, &rec)
		if rec.Seq != int64(i+1) || seen[rec.Index] {
			t.Fatalf("line %d: seq %d index %d (seen before: %v)", i, rec.Seq, rec.Index, seen[rec.Index])
		}
		seen[rec.Index] = true
	}
}
