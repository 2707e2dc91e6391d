package noc

// This file gives a Config a public, content-addressed identity for
// result memoization (the sweep service's cache key). The key includes
// the shortcut plan: two designs with different shortcut sets produce
// different results and must never share a cache entry.

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
)

// Fingerprint returns a stable hex digest of every configuration field
// that shapes simulation results. Zero fields are defaulted first, so a
// zero Config and an explicitly-defaulted one hash identically.
func (c Config) Fingerprint() string {
	c = c.withDefaults()
	h := sha256.New()
	e := newFPEncoder(h)
	e.i(c.Mesh.W)
	e.i(c.Mesh.H)
	e.i(int(c.Width))
	e.i(c.VCsPerClass)
	e.i(c.BufDepth)
	e.i64(c.EscapeTimeout)
	e.b(c.WireShortcuts)
	e.ints(c.RFEnabled)
	e.i(int(c.Multicast))
	e.ints(c.MulticastReceivers)
	// The next four slots and every zero slot after RetryLimit hash no
	// settable field: they hold fixed model values (and the speedup derived
	// from Width) where stored results hashed them, and the value every
	// expressible config hashed in the slots of removed settings (the retry
	// backoff pair; the five adversarial fault rates, the integrity and
	// watchdog switches and the three watchdog horizons), so digests and
	// the point IDs, job identities and cache keys built on them stay valid.
	e.i64(multicastEpoch)
	e.i(vctTableSize)
	e.f64(wireMMPerCycle)
	e.i(c.localSpeedup())
	e.i(c.ShortcutWidthBytes)
	e.i(len(c.Shortcuts))
	for _, edge := range c.Shortcuts {
		e.i(edge.From)
		e.i(edge.To)
	}
	e.f64(c.Fault.MeshBER)
	e.f64(c.Fault.RFBER)
	e.i(c.Fault.RetryLimit)
	e.i64(0)
	e.i64(0)
	e.i64(c.Fault.Seed)
	e.f64(0)
	e.f64(0)
	e.f64(0)
	e.f64(0)
	e.f64(0)
	e.b(false)
	e.b(false)
	e.i64(0)
	e.i64(0)
	e.i64(0)
	e.b(c.AdaptiveRouting)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// fpEncoder streams fixed-width little-endian primitives into a hash.
// It never buffers or errors: hash writes cannot fail.
type fpEncoder struct {
	w interface{ Write([]byte) (int, error) }
}

func newFPEncoder(w interface{ Write([]byte) (int, error) }) fpEncoder {
	return fpEncoder{w: w}
}

func (e fpEncoder) u64(v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	e.w.Write(buf[:])
}

func (e fpEncoder) i(v int)     { e.u64(uint64(int64(v))) }
func (e fpEncoder) i64(v int64) { e.u64(uint64(v)) }

func (e fpEncoder) b(v bool) {
	if v {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

// f64 hashes the decimal rendering rather than raw bits so that the only
// two zero values (+0 and -0, which compare equal and simulate
// identically) share a digest.
func (e fpEncoder) f64(v float64) {
	if v == 0 {
		v = math.Abs(v) // normalize -0
	}
	e.u64(math.Float64bits(v))
}

// ints hashes a length-prefixed id list (order matters: shortcut band
// assignment and receiver tuning follow list order).
func (e fpEncoder) ints(vs []int) {
	e.i(len(vs))
	for _, v := range vs {
		e.i(v)
	}
}
