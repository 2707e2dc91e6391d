package rng

import (
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
