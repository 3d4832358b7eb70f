package dataplane

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"janus/internal/topo"
)

// This file implements deterministic fault injection for the simulated
// dataplane. The paper's runtime (§2.2, §6) assumes every rule install
// succeeds; a production controller cannot — switches time out, crash
// mid-update, and links flap. A FaultPlan makes every per-switch flow-table
// operation fallible in a seeded, reproducible way, so the transactional
// update machinery (update.go) and the runtime's retry/quarantine logic can
// be soak-tested against randomized fault schedules that replay exactly.

// SwitchFaults are the per-switch fault-injection knobs.
type SwitchFaults struct {
	// FailRate is the probability in [0,1] that a table operation on the
	// switch fails (a control-channel timeout, a full TCAM, a rejected
	// flow-mod).
	FailRate float64 `json:"failRate"`
	// OpLatency is simulated per-operation latency, charged to
	// FaultStats.SimulatedLatency rather than slept, so soak tests stay
	// fast and deterministic.
	OpLatency time.Duration `json:"opLatency"`
}

// FaultPlan is a seeded, deterministic fault schedule for a Network.
// The zero value injects nothing.
type FaultPlan struct {
	// Seed drives all randomness; two runs with equal plans and equal
	// operation sequences fail identically.
	Seed int64 `json:"seed"`
	// Default applies to every switch without an explicit entry.
	Default SwitchFaults `json:"default"`
	// Switches overrides Default per switch.
	Switches map[topo.NodeID]SwitchFaults `json:"switches,omitempty"`
	// CrashAfterOps crashes a switch — wiping its flow table and failing
	// every subsequent operation until RestoreSwitch — once it has executed
	// the given number of operations.
	CrashAfterOps map[topo.NodeID]int `json:"crashAfterOps,omitempty"`
	// FlakyLinks maps a directed link (switch -> next hop) to the
	// probability that installing a rule forwarding onto it fails: the
	// "flaky link" mode, distinct from a hard topology failure.
	FlakyLinks map[[2]topo.NodeID]float64 `json:"-"`
}

// enabled reports whether the plan can inject anything.
func (p FaultPlan) enabled() bool {
	if p.Default != (SwitchFaults{}) {
		return true
	}
	return len(p.Switches) > 0 || len(p.CrashAfterOps) > 0 || len(p.FlakyLinks) > 0
}

// faultsFor resolves the knobs for one switch.
func (p FaultPlan) faultsFor(id topo.NodeID) SwitchFaults {
	if f, ok := p.Switches[id]; ok {
		return f
	}
	return p.Default
}

// FaultStats accumulates what the injector did.
type FaultStats struct {
	// OpsAttempted counts fallible table operations seen by the injector.
	OpsAttempted int `json:"opsAttempted"`
	// OpsFailed counts operations the injector failed.
	OpsFailed int `json:"opsFailed"`
	// Crashes counts switch crashes (scheduled and explicit).
	Crashes int `json:"crashes"`
	// SimulatedLatency is the summed per-op latency charge.
	SimulatedLatency time.Duration `json:"simulatedLatency"`
}

// faultState is the live injector attached to a Network.
type faultState struct {
	plan    FaultPlan
	rng     *rand.Rand
	ops     map[topo.NodeID]int
	crashed map[topo.NodeID]bool
	stats   FaultStats
}

// OpError reports a failed flow-table operation; the runtime's retry and
// quarantine machinery keys off the switch.
type OpError struct {
	Switch topo.NodeID
	Reason string
}

func (e *OpError) Error() string {
	return fmt.Sprintf("dataplane: op on switch %d failed: %s", e.Switch, e.Reason)
}

// InjectFaults installs (or replaces) the network's fault plan. The
// injector's RNG is seeded from plan.Seed, so identical plans over
// identical operation sequences inject identical faults. Crash state from
// a previous plan is cleared.
func (n *Network) InjectFaults(plan FaultPlan) {
	if !plan.enabled() {
		n.faults = nil
		return
	}
	n.faults = &faultState{
		plan:    plan,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		ops:     make(map[topo.NodeID]int),
		crashed: make(map[topo.NodeID]bool),
	}
}

// FaultPlanActive returns the active plan and whether injection is on.
func (n *Network) FaultPlanActive() (FaultPlan, bool) {
	if n.faults == nil {
		return FaultPlan{}, false
	}
	return n.faults.plan, true
}

// FaultStats returns the injector's counters (zero when injection is off).
func (n *Network) FaultStats() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats
}

// CrashSwitch wipes the switch's flow table and marks it crashed: every
// subsequent operation on it fails until RestoreSwitch. Works with or
// without an installed fault plan (an explicit chaos action).
func (n *Network) CrashSwitch(id topo.NodeID) error {
	sw, ok := n.switches[id]
	if !ok {
		return fmt.Errorf("dataplane: unknown switch %d", id)
	}
	if n.faults == nil {
		n.faults = &faultState{
			rng:     rand.New(rand.NewSource(0)),
			ops:     make(map[topo.NodeID]int),
			crashed: make(map[topo.NodeID]bool),
		}
	}
	sw.Table = newFlowTable()
	n.faults.crashed[id] = true
	n.faults.stats.Crashes++
	return nil
}

// RestoreSwitch clears a switch's crashed state. Its flow table stays
// empty — reinstalling rules is the controller's job (a reconfiguration).
func (n *Network) RestoreSwitch(id topo.NodeID) error {
	if _, ok := n.switches[id]; !ok {
		return fmt.Errorf("dataplane: unknown switch %d", id)
	}
	if n.faults != nil {
		delete(n.faults.crashed, id)
	}
	return nil
}

// CrashedSwitches lists switches currently crashed, ascending.
func (n *Network) CrashedSwitches() []topo.NodeID {
	if n.faults == nil {
		return nil
	}
	out := make([]topo.NodeID, 0, len(n.faults.crashed))
	for id := range n.faults.crashed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkOp runs the fault gauntlet for one operation on switch id (installs
// carry the rule's next hop for flaky-link checks; deletes pass ok=false).
// It returns nil when the operation may proceed.
func (n *Network) checkOp(id topo.NodeID, nextHop topo.NodeID, isInstall bool) error {
	f := n.faults
	if f == nil {
		return nil
	}
	if f.crashed[id] {
		return &OpError{Switch: id, Reason: "switch crashed"}
	}
	sf := f.plan.faultsFor(id)
	f.stats.OpsAttempted++
	f.stats.SimulatedLatency += sf.OpLatency
	f.ops[id]++
	if limit, ok := f.plan.CrashAfterOps[id]; ok && f.ops[id] >= limit {
		// Scheduled crash: the switch dies mid-update, taking its table
		// with it. The op that tripped the crash fails.
		delete(f.plan.CrashAfterOps, id)
		if sw := n.switches[id]; sw != nil {
			sw.Table = newFlowTable()
		}
		f.crashed[id] = true
		f.stats.Crashes++
		f.stats.OpsFailed++
		return &OpError{Switch: id, Reason: "switch crashed mid-update"}
	}
	if sf.FailRate > 0 && f.rng.Float64() < sf.FailRate {
		f.stats.OpsFailed++
		return &OpError{Switch: id, Reason: "injected op failure"}
	}
	if isInstall && len(f.plan.FlakyLinks) > 0 {
		if rate, ok := f.plan.FlakyLinks[[2]topo.NodeID{id, nextHop}]; ok && rate > 0 && f.rng.Float64() < rate {
			f.stats.OpsFailed++
			return &OpError{Switch: id, Reason: fmt.Sprintf("flaky link %d->%d", id, nextHop)}
		}
	}
	return nil
}
