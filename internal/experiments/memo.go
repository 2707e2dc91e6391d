package experiments

// Point-level content addressing and canonical result serialization for
// the sweep service's memoization cache (internal/sweepcache). The
// contract, property-tested in memo_test.go: two points with equal
// fingerprints produce bit-identical canonical Result bytes, and any
// semantic difference — in the design, the workload, or the run
// parameters — changes the fingerprint.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/noc"
)

// PointFingerprint is the content address of one sweep point: the design
// fingerprint (noc.Config.Fingerprint) combined with the workload
// identity and every run parameter that shapes the Result.
//
// Deliberately excluded, so runs that differ only in how they execute
// share a cache entry: Check (the invariant checker observes, it never
// changes results), ProfileCycles (adaptive profiling is already baked
// into the built config's shortcut set), and all retry/timeout
// machinery.
//
// workload must fully name the traffic: generators encode their pattern
// and parameters in Name() (e.g. "2Hotspot", "x264", "uniform+mc35"),
// and the rate/seed knobs come from opts.
func PointFingerprint(cfg noc.Config, workload string, opts Options) string {
	opts = opts.WithDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "point|cfg=%s|workload=%s|rate=%g|mcrate=%g|seed=%d|cycles=%d|drain=%d|hist=%t",
		cfg.Fingerprint(), workload, opts.Rate, opts.MulticastRate,
		opts.Seed, opts.Cycles, opts.DrainCycles, opts.Histograms)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// MarshalResult renders a Result in canonical form: Go's JSON encoding
// of an all-exported, map-free struct tree is byte-deterministic (field
// order is declaration order, float64 uses shortest round-trip
// rendering), so equal Results always serialize to equal bytes — the
// bit-identity the cache-correctness property test pins.
func MarshalResult(r Result) ([]byte, error) {
	return json.Marshal(r)
}

// UnmarshalResult parses canonical Result bytes.
func UnmarshalResult(blob []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(blob, &r); err != nil {
		return Result{}, fmt.Errorf("experiments: corrupt cached result: %w", err)
	}
	return r, nil
}
