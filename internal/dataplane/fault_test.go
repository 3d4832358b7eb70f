package dataplane

import (
	"errors"
	"reflect"
	"testing"

	"janus/internal/policy"
	"janus/internal/topo"
)

// snapshotRules captures the full rule set for exact-restore comparisons.
func snapshotRules(n *Network) map[string]Rule {
	out := map[string]Rule{}
	for _, id := range n.Switches() {
		for _, r := range n.RulesAt(id) {
			out[r.Key()] = r
		}
	}
	return out
}

func TestInjectFaultsDeterministic(t *testing.T) {
	run := func() (FaultStats, error) {
		tp, ids := diamond(t)
		n := NewNetwork(tp)
		n.InjectFaults(FaultPlan{Seed: 42, Default: SwitchFaults{FailRate: 0.5}})
		err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"])))
		return n.FaultStats(), err
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Errorf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	if (e1 == nil) != (e2 == nil) {
		t.Errorf("same seed, different outcomes: %v vs %v", e1, e2)
	}
}

// TestApplyPhaseRevertsOnFailure is the transactional core: a phase that
// fails part-way must leave the network exactly as the previous phase left
// it, and remain retryable.
func TestApplyPhaseRevertsOnFailure(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	if err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"]))); err != nil {
		t.Fatal(err)
	}
	before := snapshotRules(n)

	// Every op on the bottom switch fails: phase 1 (pre-install via bottom)
	// cannot complete.
	n.InjectFaults(FaultPlan{Switches: map[topo.NodeID]SwitchFaults{
		ids["bottom"]: {FailRate: 1},
	}})
	plan := n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]))
	err := n.ApplyPhase(plan, 1)
	if err == nil {
		t.Fatal("phase 1 should fail on the faulted switch")
	}
	var opErr *OpError
	if !errors.As(err, &opErr) || opErr.Switch != ids["bottom"] {
		t.Fatalf("error should identify the failing switch, got %v", err)
	}
	if !reflect.DeepEqual(before, snapshotRules(n)) {
		t.Fatal("failed phase left partial state behind")
	}
	if plan.applied != 0 {
		t.Fatalf("failed phase must not advance the applied phase, got %d", plan.applied)
	}

	// Clearing the fault makes the same plan retryable to completion.
	n.InjectFaults(FaultPlan{})
	if err := n.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	if plan.applied != 3 {
		t.Fatalf("retried plan should complete, applied=%d", plan.applied)
	}
}

// TestRollbackPlanRestoresExactRuleSet aborts a plan after two applied
// phases and checks RollbackPlan restores the pre-plan rules bit-for-bit.
func TestRollbackPlanRestoresExactRuleSet(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	if err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"]))); err != nil {
		t.Fatal(err)
	}
	before := snapshotRules(n)

	plan := n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]))
	if err := n.ApplyPhase(plan, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyPhase(plan, 2); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, snapshotRules(n)) {
		t.Fatal("sanity: two phases should have changed the rule set")
	}
	n.RollbackPlan(plan)
	if !reflect.DeepEqual(before, snapshotRules(n)) {
		t.Fatal("rollback did not restore the exact prior rule set")
	}
	if plan.applied != 0 {
		t.Fatalf("rolled-back plan should be reusable, applied=%d", plan.applied)
	}
	// And it is: applying again from scratch completes.
	if err := n.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
}

func TestCrashAfterOpsWipesTable(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	if err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"]))); err != nil {
		t.Fatal(err)
	}
	if len(n.RulesAt(ids["top"])) == 0 {
		t.Fatal("sanity: top should carry rules")
	}
	// The first operation on top trips the crash.
	n.InjectFaults(FaultPlan{CrashAfterOps: map[topo.NodeID]int{ids["top"]: 1}})
	plan := n.PlanUpdate(nil) // cleanup touches every switch with rules
	err := n.ApplyPlan(plan)
	if err == nil {
		t.Fatal("crash mid-update should fail the plan")
	}
	var opErr *OpError
	if !errors.As(err, &opErr) || opErr.Switch != ids["top"] {
		t.Fatalf("error should name the crashed switch, got %v", err)
	}
	if len(n.RulesAt(ids["top"])) != 0 {
		t.Error("crash should wipe the switch's flow table")
	}
	if got := n.CrashedSwitches(); len(got) != 1 || got[0] != ids["top"] {
		t.Errorf("CrashedSwitches = %v, want [%d]", got, ids["top"])
	}
	stats := n.FaultStats()
	if stats.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", stats.Crashes)
	}

	// Rollback must not resurrect rules on the crashed switch.
	n.RollbackPlan(plan)
	if len(n.RulesAt(ids["top"])) != 0 {
		t.Error("rollback resurrected rules on a crashed switch")
	}

	// After restore the switch accepts operations again (table still empty).
	if err := n.RestoreSwitch(ids["top"]); err != nil {
		t.Fatal(err)
	}
	if len(n.CrashedSwitches()) != 0 {
		t.Error("restore should clear crashed state")
	}
	if err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"]))); err != nil {
		t.Fatalf("restored switch should accept installs: %v", err)
	}
}

func TestFlakyLinkFailsInstallsOnly(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	n.InjectFaults(FaultPlan{FlakyLinks: map[[2]topo.NodeID]float64{
		{ids["a"], ids["top"]}: 1,
	}})
	// Installing the ingress rule that forwards a->top must fail.
	err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"])))
	var opErr *OpError
	if !errors.As(err, &opErr) || opErr.Switch != ids["a"] {
		t.Fatalf("install onto the flaky link should fail at switch %d, got %v", ids["a"], err)
	}
	// The bottom path avoids the flaky link entirely.
	if err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]))); err != nil {
		t.Fatalf("path avoiding the flaky link should install: %v", err)
	}
	// Deletes are not forwarding onto a link; pure cleanup succeeds even
	// though stale rules mention the flaky next hop.
	if err := n.ApplyPlan(n.PlanUpdate(nil)); err != nil {
		t.Fatalf("cleanup should not roll flaky-link dice: %v", err)
	}
}

func TestCrashSwitchExplicit(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	if err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"]))); err != nil {
		t.Fatal(err)
	}
	if err := n.CrashSwitch(ids["top"]); err != nil {
		t.Fatal(err)
	}
	if len(n.RulesAt(ids["top"])) != 0 {
		t.Error("explicit crash should wipe the table")
	}
	// Traffic through the crashed switch now blackholes.
	if _, err := n.Lookup("cl", "srv", policy.TCP, 80); err == nil {
		t.Error("flow through a crashed switch should blackhole")
	}
	if err := n.CrashSwitch(99); err == nil {
		t.Error("crashing an unknown switch should error")
	}
	if err := n.RestoreSwitch(99); err == nil {
		t.Error("restoring an unknown switch should error")
	}
}

func TestApplyRollsBackOnFault(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	if _, err := apply(n, rulesFor(t, tp, ids["a"], ids["top"], ids["b"]), nil); err != nil {
		t.Fatal(err)
	}
	before := snapshotRules(n)
	n.InjectFaults(FaultPlan{Switches: map[topo.NodeID]SwitchFaults{
		ids["bottom"]: {FailRate: 1},
	}})
	if _, err := apply(n, rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]), nil); err == nil {
		t.Fatal("apply through a dead switch should fail")
	}
	if !reflect.DeepEqual(before, snapshotRules(n)) {
		t.Fatal("failed Apply must leave the prior rule set intact")
	}
}

func TestFaultPlanActiveAndClear(t *testing.T) {
	tp, _ := diamond(t)
	n := NewNetwork(tp)
	if _, on := n.FaultPlanActive(); on {
		t.Error("fresh network should have no fault plan")
	}
	n.InjectFaults(FaultPlan{Seed: 7, Default: SwitchFaults{FailRate: 0.1}})
	plan, on := n.FaultPlanActive()
	if !on || plan.Seed != 7 {
		t.Errorf("active plan = %+v (on=%v), want seed 7", plan, on)
	}
	n.InjectFaults(FaultPlan{}) // zero plan disables
	if _, on := n.FaultPlanActive(); on {
		t.Error("zero plan should disable injection")
	}
	if s := n.FaultStats(); s != (FaultStats{}) {
		t.Errorf("stats after clear = %+v, want zero", s)
	}
}
