// Package rng provides the simulator's pseudo-random number generator:
// xoshiro256** seeded through splitmix64. Unlike math/rand, its draw
// sequence is fixed by this file alone, so the traffic generators' and
// the fault injector's streams — and with them every bit-identity
// contract (TestStepGolden, the memoized and worker-pool result bytes) —
// cannot shift under a Go release.
//
// The generator is not safe for concurrent use; every simulation
// component owns its own instance, like math/rand.Rand.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic PRNG (xoshiro256**).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Distinct seeds yield
// uncorrelated streams (splitmix64 expansion); equal seeds yield
// identical streams.
func New(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream defined by seed.
func (r *Rand) Seed(seed int64) {
	x := uint64(seed)
	for i := range r.s {
		// splitmix64: guarantees a non-zero state even for seed 0.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit random integer.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Int63n returns a uniform random integer in [0, n). Panics if n <= 0,
// matching math/rand.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	// Rejection sampling for exact uniformity.
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a uniform random integer in [0, n). Panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform random float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold returns the integer form of the test Float64() < p: a draw
// x passes it exactly when x>>11 < Threshold(p). Float64 is
// (x>>11)/2⁵³ with no rounding, so the test is x>>11 < p·2⁵³, and for
// an integer left-hand side that is x>>11 < ceil(p·2⁵³).
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0): // NaN too: no draw is below it
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// FirstBelow runs up to n Bernoulli trials and returns the index of the
// first success, or n when none succeeds. A trial succeeds when its draw
// x has x>>11 < t; with t = Threshold(p) that is Float64() < p. It
// consumes exactly the draws of
//
//	for i := 0; i < n; i++ { if r.Float64() < p { return i } }
//
// keeping the generator state in registers between trials.
func (r *Rand) FirstBelow(n int, t uint64) int {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	i := 0
	for ; i < n; i++ {
		x := bits.RotateLeft64(s1*5, 7) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = bits.RotateLeft64(s3, 45)
		if x>>11 < t {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return i
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
