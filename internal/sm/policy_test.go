package sm

import (
	"testing"

	"subwarpsim/internal/config"
)

// policyBlock builds a bare Block under scheduler policy p with the
// given warp IDs (slot order) and issue classes, enough state for pick.
func policyBlock(p config.SchedPolicy, ids []int, classes []issueClass, lastIssued int) *Block {
	b := &Block{lastIssued: lastIssued, statuses: classes}
	b.cfg.SchedPolicy = p
	for _, id := range ids {
		b.warps = append(b.warps, &Warp{ID: id})
	}
	return b
}

// TestPolicyStickiness pins the fast-forward contract: every policy
// keeps the last-issued warp while it can issue, regardless of what
// other warps are ready.
func TestPolicyStickiness(t *testing.T) {
	ids := []int{3, 0, 7, 1}
	classes := []issueClass{classCanIssue, classCanIssue, classCanIssue, classCanIssue}
	for p := config.SchedPolicy(0); int(p) < config.NumSchedPolicies; p++ {
		if got := policyBlock(p, ids, classes, 2).pick(); got != 2 {
			t.Errorf("%v: pick = %d, want sticky 2", p, got)
		}
	}
}

func TestPolicyNoneReady(t *testing.T) {
	ids := []int{0, 1, 2}
	classes := []issueClass{classScbdWait, classExited, classFetchWait}
	for p := config.SchedPolicy(0); int(p) < config.NumSchedPolicies; p++ {
		if got := policyBlock(p, ids, classes, 0).pick(); got != -1 {
			t.Errorf("%v: pick = %d, want -1 with no ready warp", p, got)
		}
	}
}

// TestLRRScanOrder pins the pre-zoo tie rule: first ready slot in
// circular order starting just after lastIssued.
func TestLRRScanOrder(t *testing.T) {
	classes := []issueClass{classCanIssue, classScbdWait, classScbdWait, classCanIssue}
	if got := policyBlock(config.SchedLRR, []int{0, 1, 2, 3}, classes, 1).pick(); got != 3 {
		t.Errorf("LRR pick = %d, want 3 (first ready after slot 1)", got)
	}
}

// TestGTOOldestFallback: on a stall GTO picks the lowest warp ID
// (admission order = age), not the nearest slot.
func TestGTOOldestFallback(t *testing.T) {
	classes := []issueClass{classCanIssue, classCanIssue, classScbdWait, classCanIssue}
	if got := policyBlock(config.SchedGTO, []int{5, 2, 0, 9}, classes, 2).pick(); got != 1 {
		t.Errorf("GTO pick = %d, want 1 (warp ID 2, the oldest ready)", got)
	}
}

// TestWaSPPhaseOrder: earlier phase groups win arbitration outright;
// within a group, round-robin distance from lastIssued breaks the tie.
func TestWaSPPhaseOrder(t *testing.T) {
	stalled := func(n int) []issueClass {
		s := make([]issueClass, n)
		for i := range s {
			s[i] = classScbdWait
		}
		return s
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// Slots 0-1 are phase group 0; a ready warp there beats later groups.
	classes := stalled(8)
	classes[1] = classCanIssue
	classes[4] = classCanIssue
	classes[6] = classCanIssue
	if got := policyBlock(config.SchedWaSP, ids, classes, 5).pick(); got != 1 {
		t.Errorf("WaSP pick = %d, want 1 (phase group 0 wins)", got)
	}

	// Same group: round-robin distance from lastIssued decides.
	classes = stalled(8)
	classes[6] = classCanIssue
	classes[7] = classCanIssue
	if got := policyBlock(config.SchedWaSP, ids, classes, 5).pick(); got != 6 {
		t.Errorf("WaSP pick = %d, want 6 (nearer in round-robin order)", got)
	}
}
