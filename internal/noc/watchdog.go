package noc

// This file implements the self-healing watchdog (Config.Watchdog):
// every CheckEvery cycles it audits forward progress, and when the
// oldest head flit has occupied a VC for StallHorizon cycles or more it
// restores every leaked credit and releases every stuck VC back into
// arbitration. Those are the two fault modes that wedge the fabric
// without breaking any protocol invariant; it fires at once on a new
// stall and at most once per Grace while the same stall lasts.
//
// Nothing else is recovered. Deadlock freedom comes from the escape
// class (Duato's protocol: escapeRoute's channel dependencies are
// acyclic), so a stall that outlives credit and VC repair is a
// simulator bug. It stays a stall, and the drain report, CheckSoak's
// drain budget and the invariant checker's horizon report it.

// WatchdogConfig tunes stall recovery. The zero value disables it.
type WatchdogConfig struct {
	// Enabled turns the watchdog on.
	Enabled bool

	// CheckEvery is the audit period in cycles. Default 1024.
	CheckEvery int64

	// StallHorizon is the head-flit age that counts as a stall. It
	// should sit well under the invariant checker's deadlock horizon so
	// recovery fires (and can finish) before the checker declares the
	// run dead. Default 25,000 cycles.
	StallHorizon int64

	// Grace is the minimum wait between two recoveries of one stall,
	// giving the previous one time to restore progress. Default 2,048
	// cycles.
	Grace int64
}

// withDefaults fills the zero knobs of an enabled config.
func (w WatchdogConfig) withDefaults() WatchdogConfig {
	if !w.Enabled {
		return w
	}
	if w.CheckEvery == 0 {
		w.CheckEvery = 1024
	}
	if w.StallHorizon == 0 {
		w.StallHorizon = 25_000
	}
	if w.Grace == 0 {
		w.Grace = 2_048
	}
	return w
}

// watchdogState is the stall tracking between checks.
type watchdogState struct {
	stalled  bool  // the last check saw a stall
	lastFire int64 // cycle of the last recovery
}

// watchdogStep runs the periodic stall check. Called from Step at the
// end-of-cycle safe point (after arbitration, like applyPendingKills).
func (n *Network) watchdogStep() {
	cfg := n.cfg.Watchdog
	if n.now == 0 || n.now%cfg.CheckEvery != 0 {
		return
	}
	if n.Audit().OldestHeadAge < cfg.StallHorizon {
		n.wd.stalled = false
		return
	}
	if n.wd.stalled && n.now-n.wd.lastFire < cfg.Grace {
		return
	}
	n.wd.stalled = true
	n.wd.lastFire = n.now
	n.recoverCreditsAndVCs()
	n.stats.WatchdogRecoveries++
}

// recoverCreditsAndVCs restores every leaked credit and releases every
// stuck VC.
func (n *Network) recoverCreditsAndVCs() {
	for r := range n.routers {
		rs := &n.routers[r]
		for p := 0; p < numPorts; p++ {
			for _, vc := range rs.vcs[p] {
				if vc.leaked > 0 {
					n.stats.RecoveryCreditRepairs += int64(vc.leaked)
					vc.leaked = 0
				}
				if vc.stuck {
					vc.stuck = false
					n.stats.RecoveryVCUnsticks++
				}
			}
		}
	}
}
