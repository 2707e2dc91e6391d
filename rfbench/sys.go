package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssSampler samples the resident memory of this process and its child
// processes (sweep workers, the daemon) while the measured phase runs.
// The median of the samples is steadier than a peak, which depends on
// where garbage collections happen to fall.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB; owned by the sampling goroutine until done
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if mb, err := treeRSSMB(); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median sample in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	sort.Float64s(s.samples)
	return median(s.samples)
}

// treeRSSMB is the resident set of this process and its children, in MB.
func treeRSSMB() (float64, error) {
	pids, err := children()
	if err != nil {
		return 0, err
	}
	var pages int64
	for _, pid := range append(pids, os.Getpid()) {
		blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
		if err != nil {
			continue // a child that just exited
		}
		if f := strings.Fields(string(blob)); len(f) > 1 {
			n, _ := strconv.ParseInt(f[1], 10, 64)
			pages += n
		}
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// waitChildren blocks until this process has no child processes left,
// or timeout passes. The worker pool kills its workers on Close and
// reaps them on goroutines of its own; this is how the benchmark waits
// for that to finish.
func waitChildren(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pids, err := children()
		if err != nil || len(pids) == 0 {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d child processes still running after %v", len(pids), timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// children lists the processes whose parent is this one.
func children() ([]int, error) {
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		return nil, err
	}
	me := os.Getpid()
	var out []int
	for _, p := range stats {
		blob, err := os.ReadFile(p)
		if err != nil {
			continue // the process ended between the glob and the read
		}
		// The command name is parenthesised and may hold spaces; the
		// pid precedes it and the parent pid is the second field after.
		s := string(blob)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 2 {
			continue
		}
		ppid, err1 := strconv.Atoi(fields[1])
		pid, err2 := strconv.Atoi(strings.Fields(s)[0])
		if err1 == nil && err2 == nil && ppid == me {
			out = append(out, pid)
		}
	}
	return out, nil
}

// derive makes a point seed from the run seed and the point's position,
// so every input follows from --seed alone. It is never 0, which the
// simulator would read as "use the default seed".
func derive(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix(x ^ splitmix(uint64(p)))
	}
	return int64(x>>2) + 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// closedLoop paces the measured phase. Each caller waits for its
// operation to finish before asking whether to start another. The
// answer is yes until some operation has finished, and afterwards only
// while an operation of the mean latency so far would end within the
// budget. Runs therefore end close to the budget without cutting an
// operation short.
type closedLoop struct {
	start  time.Time
	budget time.Duration
	rss    *rssSampler

	mu   sync.Mutex
	ops  []time.Duration
	sum  time.Duration
	last time.Time
}

func newClosedLoop(budget time.Duration) *closedLoop {
	now := time.Now()
	return &closedLoop{start: now, budget: budget, last: now, rss: startRSS(100 * time.Millisecond)}
}

// next reports whether the caller should start another operation.
func (l *closedLoop) next() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ops) == 0 {
		return true
	}
	mean := l.sum / time.Duration(len(l.ops))
	return time.Since(l.start)+mean <= l.budget
}

// done records one finished operation.
func (l *closedLoop) done(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, d)
	l.sum += d
	l.last = time.Now()
}

// finish ends the measured phase and returns the latencies, the
// phase's length and the median resident memory over it in MB.
func (l *closedLoop) finish() ([]time.Duration, time.Duration, float64) {
	rss := l.rss.finish()
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.ops...), l.last.Sub(l.start), rss
}
