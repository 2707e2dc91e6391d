package experiments

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkSweepThroughput measures supervised sweep throughput in
// points/sec, in-process vs through the worker-process pool, so the
// subprocess tax (spawn amortization, frame codec, JSON transit) is a
// pinned number instead of folklore. cmd/bench runs it with -benchtime
// 1x and gates regressions on ns/op like every other pinned benchmark.
func BenchmarkSweepThroughput(b *testing.B) {
	const points = 8
	mkPoints := func(base int64) []SweepPoint {
		pts := make([]SweepPoint, points)
		for i := range pts {
			pts[i] = benchPortablePoint(b, base+int64(i), 2000)
		}
		return pts
	}

	run := func(b *testing.B, exec Executor) {
		for i := 0; i < b.N; i++ {
			// Fresh seeds per iteration so no memoization can hide work.
			pts := mkPoints(int64(1000 + i*points))
			start := time.Now()
			if _, err := Supervise(context.Background(), SuperviseConfig{Workers: 4, Exec: exec}, pts); err != nil {
				b.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(points)/elapsed.Seconds(), "points/sec")
			}
		}
	}

	b.Run("inproc", func(b *testing.B) { run(b, nil) })
	b.Run("isolated", func(b *testing.B) {
		exe, err := os.Executable()
		if err != nil {
			b.Fatal(err)
		}
		pool, err := NewWorkerPool(WorkerPoolConfig{
			Command: []string{exe},
			Env:     []string{"RFSIM_EXP_WORKER=1"},
			Workers: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		run(b, pool)
	})
}

func benchPortablePoint(b *testing.B, seed, cycles int64) SweepPoint {
	b.Helper()
	pt, err := NewPortableSweepPoint(
		noc.Config{Mesh: topology.New10x10()},
		GenSpec{Workload: "uniform", Rate: 0.01, Seed: seed},
		Options{Cycles: cycles, DrainCycles: 50000, Rate: 0.01, Seed: seed},
		map[string]string{"bench": fmt.Sprint(seed)},
	)
	if err != nil {
		b.Fatal(err)
	}
	return pt
}

// adaptiveBenchKey numbers BenchmarkAdaptiveShortcuts' selections. It
// never repeats, across b.N rounds and -count runs alike, so every
// iteration misses the content-keyed memo.
var adaptiveBenchKey int64

// BenchmarkAdaptiveShortcuts times one application-specific selection,
// a memo miss, as a Summary makes 21 of: HotBiDF profile, 50 RF-enabled
// routers, budget 16.
func BenchmarkAdaptiveShortcuts(b *testing.B) {
	m := topology.New10x10()
	opts := Options{}.WithDefaults()
	profile := traffic.NewProbabilistic(m, traffic.HotBiDF, opts.Rate, opts.Seed)
	freq := traffic.FrequencyMatrix(profile, m.N(), opts.ProfileCycles)
	rf := m.RFPlacement(50)
	x := 0
	for freq[x] == nil {
		x++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A new count of x's traffic to itself, which no shortcut can
		// shorten, misses the memo without changing the selection.
		adaptiveBenchKey++
		freq[x][x] = adaptiveBenchKey
		if got := AdaptiveShortcuts(m, rf, freq, tech.ShortcutBudget); len(got) == 0 {
			b.Fatal("selection failed")
		}
	}
}
