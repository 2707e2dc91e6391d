package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus the union of its children's
// intervals: overlapping children count once, and a child's part
// outside the parent does not count.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{SpanID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{SpanID: 2, ParentID: 1, Name: "a", StartNS: 10, EndNS: 40},
		{SpanID: 3, ParentID: 1, Name: "b", StartNS: 30, EndNS: 50},  // overlaps a
		{SpanID: 4, ParentID: 1, Name: "c", StartNS: 90, EndNS: 120}, // runs past root
		{SpanID: 5, ParentID: 2, Name: "a1", StartNS: 15, EndNS: 20},
		{SpanID: 6, ParentID: 2, Name: "a2", StartNS: 20, EndNS: 25, Count: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - (40 - 10) - (50 - 40) - (100 - 90),
		2: 30 - 10,
		3: 20,
		4: 30,
		5: 5,
		6: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got, want := coverage(spans, "root"), 0.5; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if got := coverage(spans, "absent"); got != 0 {
		t.Errorf("coverage of an absent root = %v, want 0", got)
	}
}

// An untraced run hands workloads a nil tracer; every span method must
// be a no-op on it.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	root := tr.Root("x")
	child := root.Child("y")
	now := time.Now()
	child.Record("z", now, now)
	child.Aggregate("w", now, 5, 3)
	child.EndCount(3)
	root.End()
	if spans := tr.Spans(); spans != nil {
		t.Fatalf("nil tracer recorded %v", spans)
	}
}

// Aggregates count toward the tracer's clock reads, and spans nest by
// parent ID within one trace.
func TestTracerRecordsNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("figures")
	child := root.Child("experiments.Fig7")
	child.Aggregate("noc.Network.Step", tr.epoch, 1000, 10)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, a := byName["figures"], byName["experiments.Fig7"], byName["noc.Network.Step"]
	if r.ParentID != 0 || c.ParentID != r.SpanID || a.ParentID != c.SpanID {
		t.Errorf("parents: root %d, child %d (want %d), aggregate %d (want %d)", r.ParentID, c.ParentID, r.SpanID, a.ParentID, c.SpanID)
	}
	if c.TraceID != r.TraceID || a.TraceID != r.TraceID {
		t.Error("spans of one operation must share the trace ID")
	}
	if a.Count != 10 || a.dur() != 1000 {
		t.Errorf("aggregate = %d calls over %d ns, want 10 over 1000", a.Count, a.dur())
	}
	if got := tr.reads.Load(); got != 4+10 {
		t.Errorf("clock reads = %d, want 14", got)
	}
}
