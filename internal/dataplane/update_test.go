package dataplane

import (
	"testing"

	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/topo"
)

// diamond builds a-{top,bottom}-b with a client on a and server on b.
func diamond(t *testing.T) (*topo.Topology, map[string]topo.NodeID) {
	t.Helper()
	tp := topo.NewTopology("diamond")
	ids := map[string]topo.NodeID{}
	for _, n := range []string{"a", "top", "bottom", "b"} {
		ids[n] = tp.AddSwitch(n)
	}
	link := func(x, y string) {
		t.Helper()
		if err := tp.AddLink(ids[x], ids[y], 100); err != nil {
			t.Fatal(err)
		}
	}
	link("a", "top")
	link("top", "b")
	link("a", "bottom")
	link("bottom", "b")
	if err := tp.AddEndpoint("cl", ids["a"], "C"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", ids["b"], "S"); err != nil {
		t.Fatal(err)
	}
	return tp, ids
}

func rulesFor(t *testing.T, tp *topo.Topology, path ...topo.NodeID) []Rule {
	t.Helper()
	res := &core.Result{Assignments: []core.Assignment{{
		Policy: 0, Role: core.HardEdge, Src: "cl", Dst: "srv",
		Path: pathOfIDs(path...), BW: 10,
	}}}
	return CompileRules(tp, stubLookup{}, res)
}

func TestPlanUpdatePhases(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	oldRules := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
	if err := n.ApplyPlan(n.PlanUpdate(oldRules)); err != nil {
		t.Fatal(err)
	}
	walk, err := n.Lookup("cl", "srv", policy.TCP, 80)
	if err != nil {
		t.Fatalf("initial path: %v", err)
	}
	if !containsNode(walk, ids["top"]) {
		t.Fatalf("initial walk %v should use top", walk)
	}

	// Reroute via bottom with a three-phase plan; after EVERY phase the
	// flow must still be deliverable (no transient blackhole).
	newRules := rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"])
	plan := n.PlanUpdate(newRules)
	if len(plan.Ops) == 0 {
		t.Fatal("reroute should produce operations")
	}
	for phase := 1; phase <= 3; phase++ {
		if err := n.ApplyPhase(plan, phase); err != nil {
			t.Fatal(err)
		}
		walk, err := n.Lookup("cl", "srv", policy.TCP, 80)
		if err != nil {
			t.Fatalf("after phase %d: %v", phase, err)
		}
		// Consistency: the walk is entirely old or entirely new.
		usesTop := containsNode(walk, ids["top"])
		usesBottom := containsNode(walk, ids["bottom"])
		if usesTop == usesBottom {
			t.Fatalf("after phase %d: mixed walk %v", phase, walk)
		}
		if phase >= 2 && !usesBottom {
			t.Fatalf("after commit phase the flow should use bottom, walk %v", walk)
		}
		if phase == 1 && !usesTop {
			t.Fatalf("pre-install phase must not move traffic, walk %v", walk)
		}
	}
	// Phase 3 removed the stale top rules.
	for _, r := range n.RulesAt(ids["top"]) {
		if r.Src == "cl" {
			t.Errorf("stale rule on top remains: %+v", r)
		}
	}
}

func TestPlanUpdateNoChange(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	rules := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
	if err := n.ApplyPlan(n.PlanUpdate(rules)); err != nil {
		t.Fatal(err)
	}
	plan := n.PlanUpdate(rules)
	if len(plan.Ops) != 0 {
		t.Errorf("identical target should plan no ops, got %d", len(plan.Ops))
	}
}

func TestPlanUpdatePhaseCounts(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	oldRules := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
	if err := n.ApplyPlan(n.PlanUpdate(oldRules)); err != nil {
		t.Fatal(err)
	}
	plan := n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]))
	switches := [4]map[topo.NodeID]bool{{}, {}, {}, {}}
	for _, op := range plan.Ops {
		switches[op.Phase][op.Rule.Switch] = true
	}
	// Phase 2 is exactly the ingress switch.
	if len(switches[2]) != 1 {
		t.Errorf("commit phase touches %d switches, want 1", len(switches[2]))
	}
	if len(switches[1]) == 0 {
		t.Error("pre-install phase should touch downstream switches")
	}
	if len(switches[3]) == 0 {
		t.Error("cleanup phase should remove old rules")
	}
}

func TestApplyPhaseValidation(t *testing.T) {
	tp, _ := diamond(t)
	n := NewNetwork(tp)
	plan := &UpdatePlan{}
	if err := n.ApplyPhase(plan, 0); err == nil {
		t.Error("phase 0 should error")
	}
	if err := n.ApplyPhase(plan, 4); err == nil {
		t.Error("phase 4 should error")
	}
	bad := &UpdatePlan{Ops: []UpdateOp{{Phase: 1, Install: true, Rule: Rule{Switch: 99}}}}
	if err := n.ApplyPhase(bad, 1); err == nil {
		t.Error("op on unknown switch should error")
	}
}

// TestApplyPhaseOutOfOrder is the regression test for phase-order
// enforcement: a plan tracks its last applied phase and rejects anything
// but the next one.
func TestApplyPhaseOutOfOrder(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	if err := n.ApplyPlan(n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["top"], ids["b"]))); err != nil {
		t.Fatal(err)
	}
	plan := n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]))

	// Committing before pre-install would blackhole the flow mid-update.
	if err := n.ApplyPhase(plan, 2); err == nil {
		t.Fatal("phase 2 before phase 1 should error")
	}
	if err := n.ApplyPhase(plan, 3); err == nil {
		t.Fatal("phase 3 before phase 1 should error")
	}
	if err := n.ApplyPhase(plan, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyPhase(plan, 1); err == nil {
		t.Fatal("re-applying phase 1 should error")
	}
	if err := n.ApplyPhase(plan, 3); err == nil {
		t.Fatal("skipping phase 2 should error")
	}
	if err := n.ApplyPhase(plan, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyPhase(plan, 3); err != nil {
		t.Fatal(err)
	}
	if got := plan.applied; got != 3 {
		t.Fatalf("applied phase = %d, want 3", got)
	}
	if err := n.ApplyPhase(plan, 1); err == nil {
		t.Fatal("re-running a completed plan should error")
	}
}

// TestPlanUpdateEmptyTarget covers the pure-cleanup edge case: an empty
// target plans only phase-3 deletes and leaves the network rule-free.
func TestPlanUpdateEmptyTarget(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	old := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
	if err := n.ApplyPlan(n.PlanUpdate(old)); err != nil {
		t.Fatal(err)
	}
	plan := n.PlanUpdate(nil)
	if len(plan.Ops) != len(old) {
		t.Fatalf("empty target should plan %d removals, got %d ops", len(old), len(plan.Ops))
	}
	for _, op := range plan.Ops {
		if op.Phase != 3 || op.Install {
			t.Fatalf("pure cleanup should be phase-3 deletes only, got %+v", op)
		}
	}
	if err := n.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	if n.RuleCount() != 0 {
		t.Fatalf("network should be empty, has %d rules", n.RuleCount())
	}
	rep := plan.Report()
	if rep.RulesRemoved != len(old) || rep.RulesInstalled != 0 || rep.RulesUpdated != 0 {
		t.Errorf("report = %+v, want %d pure removals", rep, len(old))
	}
}

// TestPlanUpdateIdenticalTarget covers the zero-op edge case end to end:
// the plan is empty, applies trivially, and reports an all-zero delta.
func TestPlanUpdateIdenticalTarget(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	rules := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
	if err := n.ApplyPlan(n.PlanUpdate(rules)); err != nil {
		t.Fatal(err)
	}
	before := n.RuleCount()
	plan := n.PlanUpdate(rules)
	if len(plan.Ops) != 0 {
		t.Fatalf("identical target should plan zero ops, got %d", len(plan.Ops))
	}
	if err := n.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	if rep := plan.Report(); rep != (CompileResult{}) {
		t.Errorf("zero-op plan should report zero delta, got %+v", rep)
	}
	if n.RuleCount() != before {
		t.Errorf("rule count changed by a zero-op plan: %d -> %d", before, n.RuleCount())
	}
}

// TestPlanUpdateQueueOnlyIngressChange covers a queue-resize on the ingress
// rule alone: the plan is a single phase-2 update (no pre-install, no
// cleanup) and the flow never leaves its path.
func TestPlanUpdateQueueOnlyIngressChange(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	rules := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
	if err := n.ApplyPlan(n.PlanUpdate(rules)); err != nil {
		t.Fatal(err)
	}
	resized := make([]Rule, len(rules))
	copy(resized, rules)
	for i := range resized {
		if resized[i].InPort == HostPort {
			resized[i].QueueMbps = 25
		}
	}
	plan := n.PlanUpdate(resized)
	if len(plan.Ops) != 1 {
		t.Fatalf("queue-only ingress change should plan 1 op, got %d: %+v", len(plan.Ops), plan.Ops)
	}
	op := plan.Ops[0]
	if op.Phase != 2 || !op.Install || op.Rule.QueueMbps != 25 {
		t.Fatalf("want a phase-2 install of the resized rule, got %+v", op)
	}
	if err := n.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	rep := plan.Report()
	if rep.RulesUpdated != 1 || rep.RulesInstalled != 0 || rep.RulesRemoved != 0 || rep.SwitchesTouched != 1 {
		t.Errorf("report = %+v, want exactly one update on one switch", rep)
	}
	walk, err := n.Lookup("cl", "srv", policy.TCP, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !containsNode(walk, ids["top"]) {
		t.Errorf("queue resize must not move the flow, walk %v", walk)
	}
}

func containsNode(walk []topo.NodeID, x topo.NodeID) bool {
	for _, n := range walk {
		if n == x {
			return true
		}
	}
	return false
}
