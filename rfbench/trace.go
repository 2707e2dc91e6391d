package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer's public entry
// point. Spans of one operation share TraceID; ParentID links a span to
// the call that caused it (0 for a root). Count, when set, is how many
// calls or simulated cycles the span stands for: an aggregate such as
// every Step of a run is recorded once, its summed duration packed into
// [StartNS, EndNS) so that self-time arithmetic still holds.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count,omitempty"`
}

func (s Span) dur() int64 { return s.EndNS - s.StartNS }

// Tracer keeps finished spans in memory until the run ends. A nil
// *Tracer is the untraced run: every method is a no-op, so workloads
// call the same code with tracing on or off.
type Tracer struct {
	epoch   time.Time
	nowCost time.Duration // measured cost of one clock read
	ids     atomic.Uint64
	reads   atomic.Int64 // clock reads made only because tracing is on

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace; span times count from now.
func NewTracer() *Tracer {
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return &Tracer{epoch: time.Now(), nowCost: time.Since(t0) / n}
}

// active is an open span.
type active struct {
	t       *Tracer
	traceID uint64
	id      uint64
	parent  uint64
	name    string
	start   time.Time
}

func (t *Tracer) open(traceID, parent uint64, name string) *active {
	id := t.ids.Add(1)
	if traceID == 0 {
		traceID = id
	}
	t.reads.Add(2) // this one and the one in End
	return &active{t: t, traceID: traceID, id: id, parent: parent, name: name, start: time.Now()}
}

// Root opens a span that starts a new trace.
func (t *Tracer) Root(name string) *active {
	if t == nil {
		return nil
	}
	return t.open(0, 0, name)
}

// Child opens a span inside a, in a's trace.
func (a *active) Child(name string) *active {
	if a == nil {
		return nil
	}
	return a.t.open(a.traceID, a.id, name)
}

// End closes the span.
func (a *active) End() {
	if a == nil {
		return
	}
	a.t.record(a.traceID, a.id, a.parent, a.name, a.start, time.Now(), 0)
}

// EndCount closes a span that stands for count calls or cycles.
func (a *active) EndCount(count int64) {
	if a == nil {
		return
	}
	a.t.record(a.traceID, a.id, a.parent, a.name, a.start, time.Now(), count)
}

// Record adds a finished child span of a whose bounds the caller
// measured anyway.
func (a *active) Record(name string, start, end time.Time) {
	if a == nil {
		return
	}
	a.t.record(a.traceID, a.t.ids.Add(1), a.id, name, start, end, 0)
}

// Aggregate adds a child span of a standing for count calls that took
// total between them, packed to start at start. The caller read the
// clock once per call to measure them.
func (a *active) Aggregate(name string, start time.Time, total time.Duration, count int64) {
	if a == nil {
		return
	}
	a.t.reads.Add(count)
	a.t.record(a.traceID, a.t.ids.Add(1), a.id, name, start, start.Add(total), count)
}

func (t *Tracer) record(traceID, id, parent uint64, name string, start, end time.Time, count int64) {
	s := Span{
		TraceID: traceID, SpanID: id, ParentID: parent, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)), Count: count,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the finished spans in the order they ended.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// overhead estimates the share of the workload's traced time that
// tracing itself cost: the clock reads made only for spans, at their
// measured cost, over the duration of the root spans named root.
func (t *Tracer) overhead(spans []Span, root string) float64 {
	var total int64
	for _, s := range spans {
		if s.ParentID == 0 && s.Name == root {
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(t.reads.Load()) * float64(t.nowCost) / float64(total)
}

// WriteFile saves the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	blob, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// selfTimes maps each span ID to its self time in nanoseconds: its
// duration minus the part of its interval that its children cover.
// Overlapping children (concurrent calls) are counted once.
func selfTimes(spans []Span) map[uint64]int64 {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.SpanID] = s.dur() - covered(s, children[s.SpanID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// coverage is the share of the time of the root spans named root that
// their child spans cover.
func coverage(spans []Span, root string) float64 {
	self := selfTimes(spans)
	var dur, selfNS int64
	for _, s := range spans {
		if s.ParentID == 0 && s.Name == root {
			dur += s.dur()
			selfNS += self[s.SpanID]
		}
	}
	if dur == 0 {
		return 0
	}
	return 1 - float64(selfNS)/float64(dur)
}
