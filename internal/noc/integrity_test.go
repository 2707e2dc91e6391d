package noc

import (
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

func integrityConfig(m *topology.Mesh, fault FaultConfig) Config {
	return Config{
		Mesh:      m,
		Width:     tech.Width16B,
		Shortcuts: shortcut.SelectMaxCost(m.Graph(), shortcut.Params{Budget: 4}),
		Fault:     fault,
		Integrity: true,
	}
}

// With integrity off, packets carry no sequence headers and the new
// stats stay zero.
func TestIntegrityDisabledNoHeaders(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	n := New(Config{Mesh: m, Width: tech.Width16B})
	injected := soakTraffic(n, m, 61, 2000, 0.3, nil)
	if !n.Drain(200_000) {
		t.Fatal("plain network failed to drain")
	}
	s := n.Stats()
	if len(injected) == 0 || s.PacketsEjected == 0 {
		t.Fatal("no traffic ran")
	}
	if s.DuplicatesDropped+s.ChecksumFailures+s.IntegrityRetransmits+s.PacketsLost != 0 {
		t.Errorf("integrity machinery active while disabled: %+v", s)
	}
}

// Duplicates injected by RF band re-triggers must be dropped at the
// receiver: exactly one delivery per sequence number, and every injected
// duplicate accounted as dropped (none may survive or linger).
func TestIntegrityDuplicateDropped(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	n := New(integrityConfig(m, FaultConfig{DuplicateRate: 0.5, Seed: 17}))
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	injected := soakTraffic(n, m, 71, 4000, 0.4, nil)
	if !n.Drain(200_000) {
		t.Fatal("failed to drain")
	}
	s := n.Stats()
	if s.DuplicatesInjected == 0 {
		t.Fatal("band re-trigger never fired")
	}
	if s.DuplicatesDropped != s.DuplicatesInjected {
		t.Errorf("duplicate ledger broken: %d injected, %d dropped",
			s.DuplicatesInjected, s.DuplicatesDropped)
	}
	assertExactlyOnce(t, n, ledger, injected)
}

// A misdelivered packet (RF mis-tune, ejected at the wrong router) must
// be detected, not delivered, and repaired by a source retransmission.
func TestIntegrityMisdeliverRetransmit(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	n := New(integrityConfig(m, FaultConfig{MisdeliverRate: 0.3, RetryLimit: 8, Seed: 19}))
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	injected := soakTraffic(n, m, 81, 4000, 0.4, nil)
	if !n.Drain(200_000) {
		t.Fatal("failed to drain")
	}
	s := n.Stats()
	if s.MisdeliveredPackets == 0 {
		t.Fatal("misdelivery never fired")
	}
	if s.IntegrityRetransmits == 0 {
		t.Fatal("misdeliveries detected but never retransmitted")
	}
	assertExactlyOnce(t, n, ledger, injected)
}

// Header corruption that slips past link CRC is caught by the end-to-end
// checksum and repaired from the sender-side table.
func TestIntegrityChecksumCatchesCorruption(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	n := New(integrityConfig(m, FaultConfig{RetryLimit: 8, Seed: 23}))
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	corrupted := 0
	injected := soakTraffic(n, m, 91, 4000, 0.4, func(n *Network, i int) {
		if i > 500 && i%400 == 0 && corrupted < 5 {
			if n.CorruptInFlightDst((i / 400) % n.Config().Mesh.N()) {
				corrupted++
			}
		}
	})
	if corrupted == 0 {
		t.Fatal("corruption hook never found a target")
	}
	if !n.Drain(200_000) {
		t.Fatal("failed to drain")
	}
	s := n.Stats()
	if s.ChecksumFailures == 0 {
		t.Fatalf("corrupted %d headers but the checksum never tripped", corrupted)
	}
	assertExactlyOnce(t, n, ledger, injected)
}

// When the retry budget runs out the packet is abandoned and accounted
// as lost — the ledger closes via PacketsLost instead of hanging.
func TestIntegrityLossAfterRetryBudget(t *testing.T) {
	t.Parallel()
	m := topology.New(6, 6)
	n := New(integrityConfig(m, FaultConfig{MisdeliverRate: 0.9, RetryLimit: 1, Seed: 29}))
	ledger := newFaultLedger()
	n.AttachObserver(ledger)
	injected := soakTraffic(n, m, 101, 4000, 0.4, nil)
	if !n.Drain(200_000) {
		t.Fatal("failed to drain")
	}
	s := n.Stats()
	if s.PacketsLost == 0 {
		t.Fatal("a 90% misdeliver rate with a 1-retry budget lost nothing")
	}
	assertExactlyOnce(t, n, ledger, injected)
}
