package dataplane

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"janus/internal/topo"
)

// tableSnapshot captures every switch's flow table in a canonical order.
func tableSnapshot(n *Network) map[topo.NodeID][]Rule {
	out := map[topo.NodeID][]Rule{}
	for _, id := range n.Switches() {
		rules := n.RulesAt(id)
		sort.Slice(rules, func(i, j int) bool { return rules[i].Key() < rules[j].Key() })
		out[id] = rules
	}
	return out
}

// TestRollbackPlanWithCrashedSwitch is the double-fault case: a reroute
// plan is partially applied, a switch crashes (wiping its table), and the
// controller rolls the plan back. The rollback must restore every healthy
// switch to its exact pre-plan table, leave the crashed switch's wiped
// table empty (reverting rules into a dead switch would fake state the
// hardware lost), and reset the plan to unapplied.
func TestRollbackPlanWithCrashedSwitch(t *testing.T) {
	cases := []struct {
		name         string
		phasesBefore int    // phases applied before the crash
		crash        string // switch that dies mid-revert
	}{
		{"crash-preinstalled-switch-after-phase-1", 1, "bottom"},
		{"crash-ingress-after-commit", 2, "a"},
		{"crash-old-path-switch-after-commit", 2, "top"},
		{"crash-after-cleanup", 3, "top"},
		{"crash-before-any-phase", 0, "bottom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp, ids := diamond(t)
			n := NewNetwork(tp)
			oldRules := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
			if err := n.ApplyPlan(n.PlanUpdate(oldRules)); err != nil {
				t.Fatal(err)
			}
			before := tableSnapshot(n)

			plan := n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]))
			for p := 1; p <= tc.phasesBefore; p++ {
				if err := n.ApplyPhase(plan, p); err != nil {
					t.Fatalf("phase %d: %v", p, err)
				}
			}
			crashID := ids[tc.crash]
			if err := n.CrashSwitch(crashID); err != nil {
				t.Fatal(err)
			}
			n.RollbackPlan(plan)

			if got := plan.applied; got != 0 {
				t.Errorf("applied phase after rollback = %d, want 0", got)
			}
			after := tableSnapshot(n)
			for id, want := range before {
				if id == crashID {
					continue
				}
				if !reflect.DeepEqual(after[id], want) {
					t.Errorf("switch %d not restored to pre-plan table\ngot:  %v\nwant: %v",
						id, after[id], want)
				}
			}
			if rules := n.RulesAt(crashID); len(rules) != 0 {
				t.Errorf("crashed switch %d has %d rules after rollback; its wiped table must stay empty: %v",
					crashID, len(rules), rules)
			}
			if crashed := n.CrashedSwitches(); !reflect.DeepEqual(crashed, []topo.NodeID{crashID}) {
				t.Errorf("CrashedSwitches = %v, want [%d]", crashed, crashID)
			}

			// The rollback reset the plan: once the switch is restored and
			// reconfigured, applying the same plan from phase 1 must
			// succeed — the undo log was consumed, not corrupted.
			if err := n.RestoreSwitch(crashID); err != nil {
				t.Fatal(err)
			}
			if err := n.ApplyPlan(n.PlanUpdate(oldRules)); err != nil {
				t.Fatalf("reconfiguring after restore: %v", err)
			}
			if err := n.ApplyPlan(plan); err != nil {
				t.Fatalf("reapplying rolled-back plan: %v", err)
			}
		})
	}
}

// TestRollbackPlanCrashMidRevert crashes a switch part-way through the
// plan's own application (the fault injector's scheduled crash), so the
// failing phase's internal revert and the subsequent RollbackPlan both run
// against a dead switch.
func TestRollbackPlanCrashMidRevert(t *testing.T) {
	tp, ids := diamond(t)
	n := NewNetwork(tp)
	oldRules := rulesFor(t, tp, ids["a"], ids["top"], ids["b"])
	if err := n.ApplyPlan(n.PlanUpdate(oldRules)); err != nil {
		t.Fatal(err)
	}
	before := tableSnapshot(n)

	// The bottom switch dies on its very first operation: phase 1's
	// pre-install fails, the phase self-reverts (skipping the corpse), and
	// ApplyPlan surfaces the error with nothing applied.
	n.InjectFaults(FaultPlan{CrashAfterOps: map[topo.NodeID]int{ids["bottom"]: 0}})
	plan := n.PlanUpdate(rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]))
	err := n.ApplyPlan(plan)
	if err == nil {
		t.Fatal("plan through a crashing switch should fail")
	}
	var opErr *OpError
	if !errors.As(err, &opErr) || opErr.Switch != ids["bottom"] {
		t.Fatalf("error should identify the crashed switch, got %v", err)
	}
	if got := plan.applied; got != 0 {
		t.Fatalf("applied phase = %d after failed phase 1, want 0", got)
	}
	n.RollbackPlan(plan)
	after := tableSnapshot(n)
	for id, want := range before {
		if id == ids["bottom"] {
			continue
		}
		if !reflect.DeepEqual(after[id], want) {
			t.Errorf("switch %d disturbed by failed plan + rollback\ngot:  %v\nwant: %v",
				id, after[id], want)
		}
	}
	if rules := n.RulesAt(ids["bottom"]); len(rules) != 0 {
		t.Errorf("crashed switch kept %d rules, want wiped table", len(rules))
	}
}
