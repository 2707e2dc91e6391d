package obs

// ServiceMetrics instruments the long-running sweep service
// (cmd/rfsimd): admission-control decisions, queue depth, cache
// effectiveness and per-point latency. It reuses the log-linear
// Histogram underlying LatencyRecorder, so the service reports the same
// p50/p90/p99/max digests as the simulator's own latency figures.
//
// All methods are safe for concurrent use; the service calls them from
// request handlers and supervisor worker goroutines simultaneously.

import (
	"fmt"
	"sync"
	"time"
)

// ServiceMetrics accumulates service-level counters. Use
// NewServiceMetrics.
type ServiceMetrics struct {
	mu sync.Mutex

	jobsAdmitted    int64
	jobsRejected    int64
	jobsShedBatch   int64
	jobsQuarantined int64
	jobsCompleted   int64
	jobsFailed      int64
	queueDepth      int64
	queuePeak       int64
	active          int64

	pointsCompleted int64
	pointsFailed    int64
	pointsCached    int64

	workersSpawned         int64
	workersCrashed         int64
	workersKilledHeartbeat int64
	workersKilledDeadline  int64
	workersOOM             int64
	workerRestartBackoffs  int64

	jobsAttached        int64
	resumeReads         int64
	resultFrames        int64
	resultTornTruncated int64

	pointLatencyUS Histogram // wall-clock per settled point, microseconds
}

// NewServiceMetrics builds an empty metrics set.
func NewServiceMetrics() *ServiceMetrics { return &ServiceMetrics{} }

// JobAdmitted records a sweep passing admission control and entering the
// queue.
func (m *ServiceMetrics) JobAdmitted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsAdmitted++
	m.queueDepth++
	if m.queueDepth > m.queuePeak {
		m.queuePeak = m.queueDepth
	}
}

// JobRejected records an admission-control rejection (HTTP 429). batch
// marks a batch-class job shed while interactive headroom remained —
// the load-shedding path, counted separately so operators can tell
// "queue full" from "batch traffic displaced by interactive reserve".
func (m *ServiceMetrics) JobRejected(batch bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsRejected++
	if batch {
		m.jobsShedBatch++
	}
}

// JobQuarantined records a request refused (HTTP 422) because a config
// it names is quarantined by the poison-config breaker.
func (m *ServiceMetrics) JobQuarantined() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsQuarantined++
}

// EstimateWait projects how long a rejected client should wait before
// retrying: the jobs ahead of it (queue depth) each cost roughly the
// live p50 per-point wall latency, spread across slots concurrent run
// slots. It is deliberately coarse — jobs have varying point counts —
// but it scales Retry-After with actual load instead of a constant.
// Returns 0 when the latency digest is still empty (cold service).
func (m *ServiceMetrics) EstimateWait(slots int) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slots <= 0 {
		slots = 1
	}
	if m.pointLatencyUS.Count() == 0 {
		return 0
	}
	p50 := m.pointLatencyUS.Quantile(0.5)
	if p50 <= 0 {
		return 0
	}
	est := time.Duration(m.queueDepth) * time.Duration(p50) * time.Microsecond / time.Duration(slots)
	if est < 0 {
		est = 0
	}
	return est
}

// JobStarted moves a queued job onto a run slot.
func (m *ServiceMetrics) JobStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active++
}

// JobDone retires a job (started or still queued — both hold a queue
// token), releasing its queue slot.
func (m *ServiceMetrics) JobDone(started, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth--
	if started {
		m.active--
	}
	if failed {
		m.jobsFailed++
	} else {
		m.jobsCompleted++
	}
}

// PointDone records one settled sweep point: whether it was served from
// the cache, whether it ultimately failed, and its wall-clock latency.
func (m *ServiceMetrics) PointDone(cached, failed bool, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pointsCompleted++
	if cached {
		m.pointsCached++
	}
	if failed {
		m.pointsFailed++
	}
	m.pointLatencyUS.Observe(wall.Microseconds())
}

// WorkerSpawned through WorkerRestartBackoff mirror the worker pool's
// lifecycle events into the service's own counter set, so one /v1/metrics
// read tells the whole isolation story.

// WorkerSpawned records a worker child process starting.
func (m *ServiceMetrics) WorkerSpawned() { m.bump(&m.workersSpawned) }

// WorkerCrashed records a worker dying (or being killed) mid-job.
func (m *ServiceMetrics) WorkerCrashed() { m.bump(&m.workersCrashed) }

// WorkerKilledHeartbeat records a SIGKILL for heartbeat loss.
func (m *ServiceMetrics) WorkerKilledHeartbeat() { m.bump(&m.workersKilledHeartbeat) }

// WorkerKilledDeadline records a SIGKILL for hard-deadline overrun.
func (m *ServiceMetrics) WorkerKilledDeadline() { m.bump(&m.workersKilledDeadline) }

// WorkerOOM records a worker self-terminating at its memory limit.
func (m *ServiceMetrics) WorkerOOM() { m.bump(&m.workersOOM) }

// WorkerRestartBackoff records a respawn delayed by crash backoff.
func (m *ServiceMetrics) WorkerRestartBackoff() { m.bump(&m.workerRestartBackoffs) }

// JobAttached records a POST served from an existing job (live tail or
// completed result log) instead of recomputation — the idempotent
// re-submit path.
func (m *ServiceMetrics) JobAttached() { m.bump(&m.jobsAttached) }

// ResumeRead records one GET /v1/jobs/{id}/results cursor replay.
func (m *ServiceMetrics) ResumeRead() { m.bump(&m.resumeReads) }

// ResultFrameAppended records one outcome or summary frame appended to
// a per-job result log.
func (m *ServiceMetrics) ResultFrameAppended() { m.bump(&m.resultFrames) }

// ResultTornTruncated records a result log whose torn tail (crash
// mid-append) was truncated at reopen.
func (m *ServiceMetrics) ResultTornTruncated() { m.bump(&m.resultTornTruncated) }

func (m *ServiceMetrics) bump(c *int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	*c++
}

// ServiceSnapshot is a point-in-time JSON-able view of the counters.
type ServiceSnapshot struct {
	JobsAdmitted    int64 `json:"jobs_admitted"`
	JobsRejected    int64 `json:"jobs_rejected"`
	JobsShedBatch   int64 `json:"jobs_shed_batch"`
	JobsQuarantined int64 `json:"jobs_quarantined"`
	JobsCompleted   int64 `json:"jobs_completed"`
	JobsFailed      int64 `json:"jobs_failed"`
	QueueDepth      int64 `json:"queue_depth"`
	QueuePeak       int64 `json:"queue_peak"`
	ActiveJobs      int64 `json:"active_jobs"`

	PointsCompleted int64 `json:"points_completed"`
	PointsFailed    int64 `json:"points_failed"`
	PointsCached    int64 `json:"points_cached"`

	WorkersSpawned         int64 `json:"workers_spawned,omitempty"`
	WorkersCrashed         int64 `json:"workers_crashed,omitempty"`
	WorkersKilledHeartbeat int64 `json:"workers_killed_heartbeat,omitempty"`
	WorkersKilledDeadline  int64 `json:"workers_killed_deadline,omitempty"`
	WorkersOOM             int64 `json:"workers_oom,omitempty"`
	WorkerRestartBackoffs  int64 `json:"worker_restart_backoffs,omitempty"`

	JobsAttached        int64 `json:"jobs_attached,omitempty"`
	ResumeReads         int64 `json:"resume_reads,omitempty"`
	ResultFrames        int64 `json:"result_frames,omitempty"`
	ResultTornTruncated int64 `json:"result_torn_truncated,omitempty"`

	// PointLatencyUS digests per-point wall latency in microseconds.
	PointLatencyUS Summary `json:"point_latency_us"`
}

// Snapshot captures the current counters.
func (m *ServiceMetrics) Snapshot() ServiceSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ServiceSnapshot{
		JobsAdmitted:    m.jobsAdmitted,
		JobsRejected:    m.jobsRejected,
		JobsShedBatch:   m.jobsShedBatch,
		JobsQuarantined: m.jobsQuarantined,
		JobsCompleted:   m.jobsCompleted,
		JobsFailed:      m.jobsFailed,
		QueueDepth:      m.queueDepth,
		QueuePeak:       m.queuePeak,
		ActiveJobs:      m.active,
		PointsCompleted: m.pointsCompleted,
		PointsFailed:    m.pointsFailed,
		PointsCached:    m.pointsCached,

		WorkersSpawned:         m.workersSpawned,
		WorkersCrashed:         m.workersCrashed,
		WorkersKilledHeartbeat: m.workersKilledHeartbeat,
		WorkersKilledDeadline:  m.workersKilledDeadline,
		WorkersOOM:             m.workersOOM,
		WorkerRestartBackoffs:  m.workerRestartBackoffs,

		JobsAttached:        m.jobsAttached,
		ResumeReads:         m.resumeReads,
		ResultFrames:        m.resultFrames,
		ResultTornTruncated: m.resultTornTruncated,

		PointLatencyUS: m.pointLatencyUS.Summary(),
	}
}

// Render formats the snapshot as the service's human-readable status
// block.
func (s ServiceSnapshot) Render() string {
	out := fmt.Sprintf(
		"jobs: %d admitted, %d rejected (%d batch shed, %d quarantined), %d completed, %d failed (queue %d, peak %d, active %d)\n"+
			"points: %d completed (%d cached, %d failed)\n"+
			"point latency: %s",
		s.JobsAdmitted, s.JobsRejected, s.JobsShedBatch, s.JobsQuarantined, s.JobsCompleted, s.JobsFailed,
		s.QueueDepth, s.QueuePeak, s.ActiveJobs,
		s.PointsCompleted, s.PointsCached, s.PointsFailed,
		s.PointLatencyUS)
	if s.WorkersSpawned > 0 || s.WorkersCrashed > 0 {
		out += fmt.Sprintf(
			"\nworkers: %d spawned, %d crashed (%d heartbeat kills, %d deadline kills, %d oom), %d restart backoffs",
			s.WorkersSpawned, s.WorkersCrashed, s.WorkersKilledHeartbeat, s.WorkersKilledDeadline,
			s.WorkersOOM, s.WorkerRestartBackoffs)
	}
	if s.ResultFrames > 0 || s.JobsAttached > 0 || s.ResumeReads > 0 {
		out += fmt.Sprintf(
			"\ndelivery: %d result frames, %d attaches, %d resume reads, %d torn logs truncated",
			s.ResultFrames, s.JobsAttached, s.ResumeReads, s.ResultTornTruncated)
	}
	return out
}
