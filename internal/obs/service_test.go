package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServiceMetricsLifecycle(t *testing.T) {
	m := NewServiceMetrics()

	m.JobAdmitted()
	m.JobAdmitted()
	m.JobRejected(false)
	m.JobRejected(true) // a batch job shed by the interactive reserve
	m.JobQuarantined()
	if s := m.Snapshot(); s.QueueDepth != 2 || s.QueuePeak != 2 || s.JobsRejected != 2 ||
		s.JobsShedBatch != 1 || s.JobsQuarantined != 1 {
		t.Fatalf("after admissions: %+v", s)
	}

	m.JobStarted()
	m.PointDone(false, false, 120*time.Microsecond)
	m.PointDone(true, false, 3*time.Microsecond)
	m.PointDone(false, true, 50*time.Millisecond)
	m.JobDone(true, false)
	m.JobDone(false, true) // rejected client bailed while still queued

	s := m.Snapshot()
	if s.QueueDepth != 0 || s.ActiveJobs != 0 {
		t.Errorf("queue depth %d active %d, want 0/0", s.QueueDepth, s.ActiveJobs)
	}
	if s.JobsCompleted != 1 || s.JobsFailed != 1 {
		t.Errorf("completed %d failed %d, want 1/1", s.JobsCompleted, s.JobsFailed)
	}
	if s.PointsCompleted != 3 || s.PointsCached != 1 || s.PointsFailed != 1 {
		t.Errorf("points %d/%d cached/%d failed, want 3/1/1", s.PointsCompleted, s.PointsCached, s.PointsFailed)
	}
	if s.PointLatencyUS.Count != 3 || s.PointLatencyUS.Max < 50000 {
		t.Errorf("latency digest %+v", s.PointLatencyUS)
	}
	if s.QueuePeak != 2 {
		t.Errorf("queue peak %d, want 2", s.QueuePeak)
	}
}

func TestServiceMetricsConcurrent(t *testing.T) {
	m := NewServiceMetrics()
	const G, per = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.JobAdmitted()
				m.JobStarted()
				m.PointDone(i%2 == 0, false, time.Duration(i)*time.Microsecond)
				m.JobDone(true, false)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.JobsAdmitted != G*per || s.JobsCompleted != G*per {
		t.Errorf("admitted %d completed %d, want %d", s.JobsAdmitted, s.JobsCompleted, G*per)
	}
	if s.QueueDepth != 0 || s.ActiveJobs != 0 {
		t.Errorf("residual queue %d active %d", s.QueueDepth, s.ActiveJobs)
	}
	if s.PointsCompleted != G*per || s.PointLatencyUS.Count != G*per {
		t.Errorf("points %d latency count %d, want %d", s.PointsCompleted, s.PointLatencyUS.Count, G*per)
	}
}

// TestEstimateWait: the Retry-After derivation scales with queue depth
// and the live p50, is zero on a cold digest, and never divides by a
// non-positive slot count.
func TestEstimateWait(t *testing.T) {
	m := NewServiceMetrics()
	if got := m.EstimateWait(4); got != 0 {
		t.Fatalf("cold EstimateWait = %v, want 0", got)
	}

	// 3 queued jobs, p50 point latency ~200ms, 2 run slots.
	for i := 0; i < 3; i++ {
		m.JobAdmitted()
	}
	for i := 0; i < 5; i++ {
		m.PointDone(false, false, 200*time.Millisecond)
	}
	got := m.EstimateWait(2)
	// 3 jobs x ~200ms / 2 slots = ~300ms (histogram bucketing is ~3%
	// coarse, so accept a band).
	if got < 200*time.Millisecond || got > 400*time.Millisecond {
		t.Errorf("EstimateWait = %v, want ~300ms", got)
	}
	if deeper := m.EstimateWait(1); deeper <= got {
		t.Errorf("fewer slots should estimate a longer wait: %v vs %v", deeper, got)
	}
	if m.EstimateWait(0) <= 0 {
		t.Error("slots=0 should clamp to 1, not return 0 or panic")
	}

	// Draining the queue shrinks the estimate to zero.
	for i := 0; i < 3; i++ {
		m.JobDone(false, false)
	}
	if got := m.EstimateWait(2); got != 0 {
		t.Errorf("empty-queue EstimateWait = %v, want 0", got)
	}
}

func TestServiceSnapshotRenderAndJSON(t *testing.T) {
	m := NewServiceMetrics()
	m.JobAdmitted()
	m.JobStarted()
	m.PointDone(true, false, time.Millisecond)
	m.JobDone(true, false)
	m.ResultFrameAppended()

	s := m.Snapshot()
	out := s.Render()
	for _, want := range []string{"jobs: 1 admitted", "points: 1 completed (1 cached", "point latency:", "delivery: 1 result frames"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	// Extra lines follow the point-latency line; empty ones add nothing.
	want := strings.Replace(out, "\ndelivery:", "\nworkers: 1 spawned\ndelivery:", 1)
	if got := s.Render("", "workers: 1 spawned"); got != want {
		t.Errorf("Render with a worker line = %q, want %q", got, want)
	}
	if got := s.Render(""); got != out {
		t.Errorf("Render(\"\") = %q, want %q", got, out)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ServiceSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != s {
		t.Errorf("snapshot JSON round-trip diverged: %+v vs %+v", back, s)
	}
}
