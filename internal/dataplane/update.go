package dataplane

import (
	"fmt"
	"sort"

	"janus/internal/topo"
)

// This file implements consistent configuration updates (§8 of the paper,
// after Dionysus and McClurg et al.): when a reconfiguration changes paths,
// naively applying the new rule set can create transient blackholes (a
// switch already flipped while its downstream still has no rule) or loops.
// PlanUpdate orders per-switch operations into phases such that after every
// phase each flow is routed entirely by its old path or entirely by its new
// path:
//
//	phase 1 — install the new path's rules at every switch except the
//	          flow's ingress (new rules are inert: no traffic arrives on
//	          their in-ports yet);
//	phase 2 — flip the ingress rule to the new next hop (the one-touch
//	          commit: traffic atomically moves to the fully-installed new
//	          path);
//	phase 3 — garbage-collect the old path's now-unreachable rules.
//
// The phases of independent flows are merged, so a whole reconfiguration
// applies in three waves of switch updates.
//
// Application is transactional: every operation runs the fault-injection
// gauntlet (fault.go), and a phase that fails part-way is reverted op by
// op, leaving the network exactly as the previous phase left it — the
// consistency invariant holds even under faults. A fully or partially
// applied plan can be rolled back wholesale with RollbackPlan.

// UpdateOp is one flow-table operation in an update plan.
type UpdateOp struct {
	// Phase is 1 (pre-install), 2 (commit), or 3 (cleanup).
	Phase int
	// Install is true to add/replace the rule, false to delete it.
	Install bool
	Rule    Rule
}

// UpdatePlan is an ordered, consistency-preserving rule update.
type UpdatePlan struct {
	Ops []UpdateOp
	// installs/updates/removes are the planning-time delta counts feeding
	// Report.
	installs, updates, removes int
	// applied is the last phase successfully applied (0 = none). Phases
	// must be applied in order; a failed phase leaves applied unchanged so
	// the same phase can be retried.
	applied int
	// undo records, in application order, how to revert every mutation the
	// plan has made so far.
	undo []undoEntry
}

// undoEntry remembers one table slot's state before a mutation: the slot
// as it was when existed, else the slot the mutation filled.
type undoEntry struct {
	sw      topo.NodeID
	flow    flowKey
	slot    slot
	existed bool
}

// Report summarizes the plan as a CompileResult (NFStateTransfers is not
// the plan's concern; see Network.AccountNFState).
func (p *UpdatePlan) Report() CompileResult {
	distinct := map[topo.NodeID]bool{}
	for _, op := range p.Ops {
		distinct[op.Rule.Switch] = true
	}
	return CompileResult{
		RulesInstalled:  p.installs,
		RulesUpdated:    p.updates,
		RulesRemoved:    p.removes,
		SwitchesTouched: len(distinct),
	}
}

// PlanUpdate computes the three-phase plan transforming the network's
// current rules into the target rule set. Each target rule is compared with
// its installed slot in place; only the rules installed, updated or
// removed have their keys formatted, and each phase's ops are in key
// order. When the target holds one slot twice, the later rule wins.
func (n *Network) PlanUpdate(target []Rule) *UpdatePlan {
	// Pass 1: claim each target rule's installed slot (the later claim
	// wins), and key the rules no slot holds yet.
	claimed := make(map[*slot]int, len(target))
	fresh := map[string]int{}
	for i := range target {
		r := &target[i]
		if sw := n.switches[r.Switch]; sw != nil {
			if s := sw.Table.find(flowKey{r.Src, r.Dst}, r.InPort, r.Match); s != nil {
				claimed[s] = i
				continue
			}
		}
		fresh[r.Key()] = i
	}

	// Target rules that change the switch: every fresh one, and every
	// claim whose action differs from its slot's.
	var changed byKey
	for k, i := range fresh {
		changed.keys = append(changed.keys, k)
		changed.rules = append(changed.rules, target[i])
	}
	for s, i := range claimed {
		if !s.sameAction(target[i]) {
			changed.keys = append(changed.keys, target[i].Key())
			changed.rules = append(changed.rules, target[i])
		}
	}
	sort.Sort(changed)

	// Installed slots no target rule claims are removed.
	var stale byKey
	for id, sw := range n.switches {
		for k, ss := range sw.Table.flows {
			for j := range ss {
				if _, keep := claimed[&ss[j]]; !keep {
					r := ss[j].rule(id, k)
					stale.keys = append(stale.keys, r.Key())
					stale.rules = append(stale.rules, r)
				}
			}
		}
	}
	sort.Sort(stale)

	plan := &UpdatePlan{installs: len(fresh), updates: len(changed.rules) - len(fresh), removes: len(stale.rules)}
	// A rule whose InPort is HostPort is the flow's ingress commit point;
	// everything else pre-installs.
	for _, r := range changed.rules {
		if r.InPort == HostPort {
			plan.Ops = append(plan.Ops, UpdateOp{Phase: 2, Install: true, Rule: r})
		} else {
			plan.Ops = append(plan.Ops, UpdateOp{Phase: 1, Install: true, Rule: r})
		}
	}
	for _, r := range stale.rules {
		plan.Ops = append(plan.Ops, UpdateOp{Phase: 3, Install: false, Rule: r})
	}

	sort.SliceStable(plan.Ops, func(i, j int) bool { return plan.Ops[i].Phase < plan.Ops[j].Phase })
	return plan
}

// ApplyPhase executes all operations of one phase. Phases must be applied
// strictly in order (1, 2, 3); applying any phase but the one after the
// last applied one returns an error without touching the network.
//
// The phase is atomic with respect to injected faults: if any operation
// fails, the operations already performed in this phase are reverted in
// reverse order and the failure is returned — the network is exactly as
// the previous phase left it, so after every ApplyPhase call each flow is
// still routed entirely by its old or entirely by its new path. The failed
// phase may be retried (the plan's applied phase is unchanged).
func (n *Network) ApplyPhase(plan *UpdatePlan, phase int) error {
	if phase < 1 || phase > 3 {
		return fmt.Errorf("dataplane: phase %d out of range", phase)
	}
	if phase != plan.applied+1 {
		return fmt.Errorf("dataplane: phase %d applied out of order (last applied %d)", phase, plan.applied)
	}
	var phaseUndo []undoEntry
	for _, op := range plan.Ops {
		if op.Phase != phase {
			continue
		}
		sw, ok := n.switches[op.Rule.Switch]
		if !ok {
			n.applyUndo(phaseUndo)
			return fmt.Errorf("dataplane: op targets unknown switch %d", op.Rule.Switch)
		}
		if err := n.checkOp(op.Rule.Switch, op.Rule.NextHop, op.Install); err != nil {
			n.applyUndo(phaseUndo)
			return err
		}
		flow, s := flowKey{op.Rule.Src, op.Rule.Dst}, slotOf(op.Rule)
		var prev slot
		var existed bool
		if op.Install {
			prev, existed = sw.Table.put(flow, s)
		} else {
			prev, existed = sw.Table.remove(flow, s)
		}
		if existed {
			s = prev
		}
		phaseUndo = append(phaseUndo, undoEntry{sw: op.Rule.Switch, flow: flow, slot: s, existed: existed})
	}
	plan.undo = append(plan.undo, phaseUndo...)
	plan.applied = phase
	return nil
}

// ApplyPlan runs the remaining phases, resuming after the last successfully
// applied one — calling it again after a failure retries the failed phase
// without redoing completed phases.
func (n *Network) ApplyPlan(plan *UpdatePlan) error {
	for p := plan.applied + 1; p <= 3; p++ {
		if err := n.ApplyPhase(plan, p); err != nil {
			return err
		}
	}
	return nil
}

// RollbackPlan reverts every mutation the plan has applied, restoring the
// exact pre-plan rule set, and resets the plan so it could be applied
// again from phase 1. Crashed switches are skipped: their tables were
// wiped by the crash and stay empty until the controller reconfigures.
func (n *Network) RollbackPlan(plan *UpdatePlan) {
	n.applyUndo(plan.undo)
	plan.undo = nil
	plan.applied = 0
}

// applyUndo replays undo entries in reverse. Reverts bypass the fault
// gauntlet — the rollback path must not itself fail — but skip crashed
// switches, whose wiped tables must stay wiped.
func (n *Network) applyUndo(entries []undoEntry) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if n.faults != nil && n.faults.crashed[e.sw] {
			continue
		}
		sw, ok := n.switches[e.sw]
		if !ok {
			continue
		}
		if e.existed {
			sw.Table.put(e.flow, e.slot)
		} else {
			sw.Table.remove(e.flow, e.slot)
		}
	}
}
