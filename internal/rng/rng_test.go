package rng

import (
	"math"
	"slices"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverge at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different-seed streams collide %d/1000 times", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.s == [4]uint64{} {
		t.Fatal("seed 0 produced the invalid all-zero state")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v suspiciously far from 0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < n/7-1000 || c > n/7+1000 {
			t.Fatalf("Intn(7): value %d drawn %d times, want ~%d", v, c, n/7)
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 17, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has %d entries", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	r := New(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on non-positive bound")
				}
			}()
			fn()
		}()
	}
}

// TestThresholdMatchesFloat64: for any rate p and 53-bit value u,
// u < Threshold(p) exactly when Float64's u/2⁵³ < p, checked at and
// around each threshold and at the special rates.
func TestThresholdMatchesFloat64(t *testing.T) {
	meta := New(53)
	rates := []float64{0, -0.5, math.NaN(), 1, 1.5, math.Inf(1), math.SmallestNonzeroFloat64,
		1.0 / (1 << 53), 1 - 1.0/(1<<53), 0.5, 0.01, 0.1}
	for i := 0; i < 2000; i++ {
		rates = append(rates, meta.Float64(), meta.Float64()*1e-3, float64(meta.Intn(1<<12))/(1<<12))
	}
	for _, p := range rates {
		th := Threshold(p)
		for _, u := range []uint64{0, 1, th - 1, th, th + 1, 1<<53 - 1, meta.Uint64() >> 11} {
			if u >= 1<<53 {
				continue
			}
			if want, got := float64(u)/(1<<53) < p, u < th; got != want {
				t.Fatalf("rate %v, u %d: u < Threshold (%d) is %v, Float64 test %v", p, u, th, got, want)
			}
		}
	}
}

// TestFirstBelowMatchesFloat64Loop drives FirstBelow the way the trace
// generators do — one trial per component, the caller drawing from the
// same generator after each success — and wants the successes and the
// final state of the per-component Float64 loop, over random rates,
// seeds and component counts.
func TestFirstBelowMatchesFloat64Loop(t *testing.T) {
	meta := New(2026)
	for trial := 0; trial < 3000; trial++ {
		seed := int64(meta.Uint64())
		var rate float64
		switch trial % 4 {
		case 0:
			rate = meta.Float64()
		case 1:
			rate = meta.Float64() * 0.05
		case 2:
			rate = float64(meta.Intn(1<<8)) / (1 << 8)
		default:
			rate = []float64{0, 1, -1, 2, math.NaN(), 1.0 / (1 << 53)}[meta.Intn(6)]
		}
		n := meta.Intn(200)
		extra := meta.Intn(3) // draws each success consumes after its trial

		ref := New(seed)
		var want []int
		for i := 0; i < n; i++ {
			if ref.Float64() < rate {
				want = append(want, i)
				for k := 0; k < extra; k++ {
					ref.Uint64()
				}
			}
		}

		r := New(seed)
		gate := Threshold(rate)
		var got []int
		for done := 0; ; {
			i := r.FirstBelow(n-done, gate)
			if i == n-done {
				break
			}
			got = append(got, done+i)
			for k := 0; k < extra; k++ {
				r.Uint64()
			}
			done += i + 1
		}
		if !slices.Equal(got, want) || *r != *ref {
			t.Fatalf("seed %d, rate %v, n %d: successes %v, want %v (states equal: %v)",
				seed, rate, n, got, want, *r == *ref)
		}
	}
}
