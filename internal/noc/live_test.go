package noc

import (
	"fmt"
	"slices"
	"testing"
)

// liveSetChecker fails the test at the first cycle end where
// checkLiveSet finds the live-router set out of step with the active
// lists.
type liveSetChecker struct {
	BaseObserver
	t      *testing.T
	failed bool
}

func (c *liveSetChecker) CycleEnd(n *Network) {
	if c.failed {
		return
	}
	if err := checkLiveSet(n); err != nil {
		c.failed = true
		c.t.Errorf("cycle %d: %v", n.Now(), err)
	}
}

// checkLiveSet checks the invariants Step's live-router walk relies on:
// a router's live bit is set exactly when its active list is non-empty,
// every VC flagged inActive is on its router's list, and every VC
// holding a packet is flagged.
func checkLiveSet(n *Network) error {
	for r := range n.routers {
		rs := &n.routers[r]
		if live := n.live[r>>6]&(1<<(r&63)) != 0; live != (len(rs.active) != 0) {
			return fmt.Errorf("router %d: live bit %v with %d active VCs", r, live, len(rs.active))
		}
		for p := range rs.vcs {
			for _, vc := range rs.vcs[p] {
				if vc.pkt != nil && !vc.inActive {
					return fmt.Errorf("router %d port %d VC %d holds a packet but is not active", r, p, vc.idx)
				}
				if vc.inActive && !slices.Contains(rs.active, vc) {
					return fmt.Errorf("router %d port %d VC %d is flagged active but not listed", r, p, vc.idx)
				}
			}
		}
	}
	return nil
}

// TestLiveRouterSetMatchesActiveLists runs every TestStepGolden
// configuration, the fault and chaos worlds included, and checks the
// live-router set against the active lists after every Step.
func TestLiveRouterSetMatchesActiveLists(t *testing.T) {
	for _, c := range stepGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			chk := &liveSetChecker{t: t}
			// The checker only observes: the run is the pinned one.
			if got := runGolden(t, c.cfg, 42, chk); got.digest != c.want.digest {
				t.Errorf("checked run's digest %#x, want %#x", got.digest, c.want.digest)
			}
		})
	}
}
