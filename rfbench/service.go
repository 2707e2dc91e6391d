package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/rfclient"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const (
	// serviceCycles is the injection window of every point a request
	// names; servicePoints is how many points a request names.
	serviceCycles = 2000
	servicePoints = 4
	// adaptiveEvery: every fifth fresh request, the first included,
	// names one adaptive 4 B point. The daemon selects its shortcuts
	// while compiling the request, before it checks whether a keyed
	// request attaches to an existing job, so these requests and their
	// repeats make the latency tail while the rest make the median.
	adaptiveEvery = 5
	// launchReps is how many daemons set-up launches and times, one
	// after another and launchGap apart, so that a few milliseconds'
	// timing is taken at more than one moment; the last one serves the
	// run.
	launchReps = 9
	launchGap  = 150 * time.Millisecond
)

// runService drives the rfsimd binary over HTTP through rfclient: nproc
// closed-loop clients, each sending a fresh keyed request and then a
// repeat of it under the same Idempotency-Key. Fresh requests simulate,
// fill the result cache and fsync the journal and the job's result log;
// repeats attach to the finished job and replay its log.
func runService(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	var d *daemon
	for i := 0; i < launchReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			time.Sleep(launchGap)
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(e.rfsimd, filepath.Join(e.dir, fmt.Sprintf("daemon%d", i)))
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
	}
	defer func() {
		if err := d.stop(); err != nil {
			res.fail("%v", err)
		}
	}()

	before, err := d.metrics()
	if err != nil {
		return nil, err
	}

	type pair struct {
		lat           time.Duration
		fresh, repeat reqOut
	}
	var (
		mu      sync.Mutex
		pairs   []pair
		probe   *pair // client 0's first request, decomposed in a traced run
		probeAt []point
	)
	root := e.tr.Root("service")
	loop := newClosedLoop(e.budget)
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tt := &timingTransport{base: http.DefaultTransport}
			hc := &http.Client{Transport: tt}
			for k := 0; loop.next(); k++ {
				pts, body := request(e, c, k)
				key := fmt.Sprintf("rfbench-%d-%d-%d", e.seed, c, k)
				sp := root.Child("service.pair")
				t0 := time.Now()
				fresh := send(ctx, hc, tt, d.base, key, body, sp, "rfsimd.request.fresh")
				repeat := send(ctx, hc, tt, d.base, key, body, sp, "rfsimd.request.repeat")
				p := pair{lat: time.Since(t0), fresh: fresh, repeat: repeat}
				sp.End()
				loop.done(p.lat)
				mu.Lock()
				pairs = append(pairs, p)
				if c == 0 && k == 0 {
					probe, probeAt = &p, pts
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	root.End()
	res.ops, res.elapsed, res.rssMB = loop.finish()

	var posts, resumes, backoffs int
	var ttfbFresh, ttfbRepeat []float64
	for i, p := range pairs {
		res.attempted += 2
		if err := p.fresh.check(nil); err != nil {
			res.failed++
			res.fail("fresh request %d: %v", i, err)
		}
		if err := p.repeat.check(p.fresh.outcomes); err != nil {
			res.failed++
			res.fail("repeat request %d: %v", i, err)
		}
		for _, r := range []reqOut{p.fresh, p.repeat} {
			posts += r.stats.Posts
			resumes += r.stats.Resumes
			backoffs += r.stats.Backoffs
		}
		ttfbFresh = append(ttfbFresh, p.fresh.ttfbShare())
		ttfbRepeat = append(ttfbRepeat, p.repeat.ttfbShare())
	}

	after, err := d.metrics()
	if err != nil {
		return nil, err
	}
	if e.tr == nil {
		return res, nil
	}
	sort.Float64s(ttfbFresh)
	sort.Float64s(ttfbRepeat)
	res.layers["rfsimd.ttfb_fresh_share"] = median(ttfbFresh)
	res.layers["rfsimd.ttfb_repeat_share"] = median(ttfbRepeat)
	res.layers["rfsimd.rejected"] = float64(after.Service.JobsRejected - before.Service.JobsRejected)
	res.layers["rfsimd.jobs_attached"] = float64(after.Service.JobsAttached - before.Service.JobsAttached)
	res.layers["rfsimd.points_cached"] = float64(after.Service.PointsCached - before.Service.PointsCached)
	res.layers["rfsimd.result_frames"] = float64(after.Service.ResultFrames - before.Service.ResultFrames)
	res.layers["rfsimd.queue_peak"] = float64(after.Service.QueuePeak)
	res.layers["rfclient.posts"] = float64(posts)
	res.layers["rfclient.resumes"] = float64(resumes)
	res.layers["rfclient.backoffs"] = float64(backoffs)

	// Decompose the points of client 0's first request, which names an
	// adaptive point, and check them against what the daemon returned.
	pr := newProber(e.tr, topology.New10x10())
	if probe != nil {
		for j, p := range probeAt {
			o, ok := probe.fresh.outcomes[j]
			if !ok {
				continue // the request failed; already counted
			}
			ref, err := experiments.UnmarshalResult(o.Result)
			if err == nil {
				err = pr.check(p, ref)
			}
			if err != nil {
				res.fail("probe: %v", err)
			}
		}
	}
	pr.finish(res.layers)
	return res, nil
}

// pointSpec is the part of rfsimd's POST /v1/sweep point format the
// benchmark uses.
type pointSpec struct {
	Design     string `json:"design"`
	WidthBytes int    `json:"width_bytes"`
	RFRouters  int    `json:"rf_routers,omitempty"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Cycles     int64  `json:"cycles"`
}

// requestKinds is the design of each point of a request. Every request
// but the adaptive ones costs about the same to compile and simulate,
// so the median op does not depend on how far a run got.
var requestKinds = [servicePoints]experiments.DesignKind{
	experiments.Baseline, experiments.Static, experiments.WireStatic, experiments.Baseline,
}

// request builds client c's k-th request: its points, in the order the
// daemon reports them, and the JSON body. Widths and traces rotate with
// k; the point seeds come from the run seed.
func request(e *env, c, k int) ([]point, []byte) {
	pts := make([]point, servicePoints)
	specs := make([]pointSpec, servicePoints)
	for j := range pts {
		s := derive(e.seed, int64(c), int64(k), int64(j))
		opts := experiments.Options{Cycles: e.cycles(serviceCycles), Seed: s}
		if j == 0 && k%adaptiveEvery == 0 {
			pts[j] = newPoint(experiments.Adaptive, tech.Width4B, traffic.HotBiDF, opts)
		} else {
			width := tech.Widths()[(k+j)%3]
			pat := traffic.Patterns()[(3*c+4*k+j)%7]
			pts[j] = newPoint(requestKinds[j], width, pat, opts)
		}
		d := pts[j].design
		specs[j] = pointSpec{
			Design: d.Kind.String(), WidthBytes: int(d.Width), RFRouters: d.RFRouters,
			Workload: pts[j].pattern.String(), Seed: s, Cycles: opts.Cycles,
		}
	}
	body, err := json.Marshal(struct {
		Points []pointSpec `json:"points"`
	}{specs})
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return pts, body
}

// reqOut is one request as the client saw it.
type reqOut struct {
	err      error
	summary  rfclient.Summary
	stats    rfclient.Stats
	outcomes map[int]rfclient.Outcome
	total    time.Duration
	ttfb     time.Duration // POST until the response headers, which the daemon sends with the job preamble
}

func (r reqOut) ttfbShare() float64 {
	if r.total <= 0 {
		return 0
	}
	return float64(r.ttfb) / float64(r.total)
}

// check verifies one request: it ended in a summary with no failed
// points after a single POST, every point came back and every result
// drained and conserved packets. A repeat passes its fresh twin's
// outcomes and must match them byte for byte.
func (r reqOut) check(twin map[int]rfclient.Outcome) error {
	switch {
	case r.err != nil:
		return r.err
	case r.summary.Failed != 0 || r.summary.Error != "":
		return fmt.Errorf("summary reports %d failed points (%s)", r.summary.Failed, r.summary.Error)
	case r.stats.Posts != 1 || r.stats.Resumes != 0 || r.stats.Backoffs != 0:
		return fmt.Errorf("took %d posts, %d resumes and %d backoffs on a fault-free link",
			r.stats.Posts, r.stats.Resumes, r.stats.Backoffs)
	case len(r.outcomes) != servicePoints:
		return fmt.Errorf("%d outcomes for %d points", len(r.outcomes), servicePoints)
	}
	for i, o := range r.outcomes {
		if twin != nil {
			if !bytes.Equal(o.Result, twin[i].Result) {
				return fmt.Errorf("point %d: the repeat's result bytes differ from the fresh request's", i)
			}
			continue
		}
		res, err := experiments.UnmarshalResult(o.Result)
		if err == nil {
			err = checkResult(res)
		}
		if err != nil {
			return fmt.Errorf("point %d: %v", i, err)
		}
	}
	return nil
}

// send runs one request to completion through rfclient under a span
// named name, split into the wait for the response headers and the
// stream after them.
func send(ctx context.Context, hc *http.Client, tt *timingTransport, base, key string, body []byte, parent *active, name string) reqOut {
	sp := parent.Child(name)
	col := rfclient.NewCollector()
	cl := rfclient.New(rfclient.Config{BaseURL: base, HTTP: hc, IdempotencyKey: key})
	tt.reset()
	t0 := time.Now()
	sum, st, err := cl.Run(ctx, body, col.Add)
	t1 := time.Now()
	headers := tt.headers()
	if headers.IsZero() {
		headers = t1
	}
	sp.Record("rfsimd.ttfb", t0, headers)
	sp.Record("rfsimd.stream", headers, t1)
	sp.End()
	return reqOut{
		err: err, summary: sum, stats: st, outcomes: col.Outcomes(),
		total: t1.Sub(t0), ttfb: headers.Sub(t0),
	}
}

// timingTransport notes when the first response headers of a request
// arrive. One client goroutine owns each, one request at a time.
type timingTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	first time.Time
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	if t.first.IsZero() {
		t.first = time.Now()
	}
	t.mu.Unlock()
	return resp, err
}

func (t *timingTransport) reset() {
	t.mu.Lock()
	t.first = time.Time{}
	t.mu.Unlock()
}

func (t *timingTransport) headers() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// adminClient reads the daemon's readiness and metrics; a daemon that
// stops answering fails the run instead of hanging it.
var adminClient = &http.Client{Timeout: 10 * time.Second}

// daemon is one rfsimd process.
type daemon struct {
	cmd       *exec.Cmd
	base      string
	stderr    bytes.Buffer  // read only after the process was waited for
	stdoutEOF chan struct{} // closed once the daemon's stdout is drained
}

// startDaemon launches rfsimd on a free loopback port with a state
// directory and a job journal, and returns once /readyz answers 200.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{stdoutEOF: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-journal", filepath.Join(dir, "journal.wal"))
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rfsimd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdoutEOF)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "rfsimd listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					addr <- f[0]
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	fail := func(err error) (*daemon, error) {
		_ = d.cmd.Process.Kill()
		<-d.stdoutEOF
		_ = d.cmd.Wait()
		return nil, fmt.Errorf("%w; rfsimd stderr: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.stdoutEOF:
		return fail(errors.New("rfsimd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("rfsimd did not report a listening address"))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := adminClient.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("rfsimd never became ready"))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// serviceMetrics is the part of GET /v1/metrics the benchmark reads.
type serviceMetrics struct {
	Service struct {
		JobsRejected int64 `json:"jobs_rejected"`
		QueuePeak    int64 `json:"queue_peak"`
		PointsCached int64 `json:"points_cached"`
		JobsAttached int64 `json:"jobs_attached"`
		ResultFrames int64 `json:"result_frames"`
	} `json:"service"`
}

func (d *daemon) metrics() (serviceMetrics, error) {
	var m serviceMetrics
	resp, err := adminClient.Get(d.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; one that has not exited after 30 s is killed.
func (d *daemon) stop() error {
	// The clients and adminClient share the default transport; closing
	// its idle connections lets the daemon's shutdown finish at once.
	adminClient.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stopping rfsimd: %w", err)
	}
	select {
	case <-d.stdoutEOF:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.stdoutEOF
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("rfsimd exited with %v: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return nil
}
