package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// noSleepPolicy is the test retry policy: full budget, no real waiting,
// seeded jitter.
func noSleepPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(context.Context, time.Duration) {},
		Rand:        rand.New(rand.NewSource(99)),
	}
}

func snapshotRules(n *dataplane.Network) map[string][]dataplane.Rule {
	out := map[string][]dataplane.Rule{}
	for _, id := range n.Switches() {
		if rules := n.RulesAt(id); len(rules) > 0 {
			out[fmt.Sprint(id)] = rules
		}
	}
	return out
}

// TestRetryExhaustionQuarantines drives a reconfiguration into a switch
// that fails every operation: the runtime must burn its retry budget, roll
// the plan back, quarantine the switch, and converge on a degraded
// configuration that avoids it.
func TestRetryExhaustionQuarantines(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRetryPolicy(noSleepPolicy())
	var midID topo.NodeID
	for _, n := range tp.Nodes {
		if n.Name == "mid" {
			midID = n.ID
		}
	}
	// Every op on mid fails; moving the client there forces ingress rules
	// onto mid.
	r.Network().InjectFaults(dataplane.FaultPlan{
		Seed:     3,
		Switches: map[topo.NodeID]dataplane.SwitchFaults{midID: {FailRate: 1}},
	})
	if err := r.MoveEndpoint(context.Background(), "c1", midID); err != nil {
		t.Fatalf("move should converge via quarantine, got %v", err)
	}
	m := r.Metrics()
	if m.ApplyRetries < 3 {
		t.Errorf("ApplyRetries = %d, want >= 3 (budget of 4 attempts)", m.ApplyRetries)
	}
	if m.ApplyRollbacks == 0 {
		t.Error("exhausted retries should count a rollback")
	}
	if m.QuarantinedSwitches != 1 {
		t.Errorf("QuarantinedSwitches = %d, want 1", m.QuarantinedSwitches)
	}
	if q := r.Quarantined(); len(q) != 1 || q[0] != midID {
		t.Errorf("Quarantined() = %v, want [%d]", q, midID)
	}
	// The quarantined switch lost its links: the client attached there is
	// disconnected, the policy unsatisfiable, and the audit still clean
	// (unconfigured pairs blackhole).
	if vs := r.Audit(); len(vs) != 0 {
		t.Errorf("audit after quarantine: %v", vs)
	}
	if len(r.topo.Neighbors(midID)) != 0 {
		t.Errorf("quarantine should remove mid's links, still has %v", r.topo.Neighbors(midID))
	}
}

// TestAuditRollbackKeepsPriorRules installs a result that contradicts the
// flow's escalated counter state: the self-audit must reject it, roll the
// dataplane back to the prior rule set, and keep the prior result live.
func TestAuditRollbackKeepsPriorRules(t *testing.T) {
	_, _, conf := statefulSetup(t)
	r, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	// Escalate properly first so rules match the escalated state.
	for i := 0; i < 5; i++ {
		if err := r.ReportEvent(context.Background(), "c1", "srv", policy.FailedConnections, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotRules(r.Network())
	prior := r.Current()

	// Hand-build a de-escalated result (default edge hard again) — exactly
	// what a naive reconfigure would install — and push it through install.
	bad := *prior
	bad.Assignments = append([]core.Assignment(nil), prior.Assignments...)
	for i := range bad.Assignments {
		a := &bad.Assignments[i]
		if a.EdgeIdx == 0 {
			a.Role = core.HardEdge
		} else {
			a.Role = core.SoftEdge
		}
	}
	if err := r.install(context.Background(), &bad, r.hour); err == nil {
		t.Fatal("installing a de-escalated config over escalated counters should fail the audit")
	}
	m := r.Metrics()
	if m.AuditRollbacks != 1 || m.AuditViolations == 0 {
		t.Errorf("AuditRollbacks = %d, AuditViolations = %d; want 1 and > 0", m.AuditRollbacks, m.AuditViolations)
	}
	if !reflect.DeepEqual(before, snapshotRules(r.Network())) {
		t.Error("audit rollback did not restore the prior rule set")
	}
	if r.Current() != prior {
		t.Error("failed install must keep the prior result live")
	}
	if vs := r.Audit(); len(vs) != 0 {
		t.Errorf("audit after rollback: %v", vs)
	}
}

// TestRestoreLinkRoundTrip fails a link and restores it at its remembered
// capacity.
func TestRestoreLinkRoundTrip(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	var aID, bID topo.NodeID
	for _, n := range tp.Nodes {
		switch n.Name {
		case "a":
			aID = n.ID
		case "b":
			bID = n.ID
		}
	}
	if err := r.RestoreLink(context.Background(), aID, bID); err == nil {
		t.Error("restoring a link that never failed should error")
	}
	if err := r.FailLink(context.Background(), aID, bID); err != nil {
		t.Fatal(err)
	}
	if _, ok := tp.LinkCapacity(aID, bID); ok {
		t.Fatal("sanity: link should be gone after FailLink")
	}
	if err := r.RestoreLink(context.Background(), aID, bID); err != nil {
		t.Fatal(err)
	}
	capacity, ok := tp.LinkCapacity(aID, bID)
	if !ok || capacity != 1000 {
		t.Errorf("restored capacity = %v (ok=%v), want 1000", capacity, ok)
	}
	if r.Current().SatisfiedCount() != 1 {
		t.Error("policy should be satisfied after restore")
	}
	if err := r.RestoreLink(context.Background(), aID, bID); err == nil {
		t.Error("restoring twice should error")
	}
	if vs := r.Audit(); len(vs) != 0 {
		t.Errorf("audit after flap: %v", vs)
	}
}

// TestMetricsDeepCopy guards against aliasing: mutating a returned Metrics
// must not corrupt the runtime's counters.
func TestMetricsDeepCopy(t *testing.T) {
	_, _, conf := statefulSetup(t)
	r, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.TierCounts == nil || len(m.TierCounts) == 0 {
		t.Fatal("initial install should record a tier count")
	}
	for k := range m.TierCounts {
		m.TierCounts[k] = 1000
	}
	m.TierHistory = append(m.TierHistory, "bogus")
	m2 := r.Metrics()
	for k, v := range m2.TierCounts {
		if v == 1000 {
			t.Errorf("TierCounts[%s] aliased into the runtime", k)
		}
	}
	for _, s := range m2.TierHistory {
		if s == "bogus" {
			t.Error("TierHistory aliased into the runtime")
		}
	}
}

// TestTierHistoryBounded: the history is a window of the last
// tierHistoryLen reconfigurations while TierCounts keeps every one, and the
// window survives State → Restore.
func TestTierHistoryBounded(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]topo.NodeID{}
	for _, n := range tp.Nodes {
		at[n.Name] = n.ID
	}
	for i := 0; i < 200; i++ {
		to := at["mid"]
		if i%2 == 1 {
			to = at["a"]
		}
		if err := r.MoveEndpoint(context.Background(), "c1", to); err != nil {
			t.Fatal(err)
		}
	}
	m := r.Metrics()
	if m.Reconfigurations != 200 || len(m.TierHistory) != tierHistoryLen {
		t.Fatalf("%d history entries after %d reconfigurations, want %d after 200",
			len(m.TierHistory), m.Reconfigurations, tierHistoryLen)
	}
	total := 0
	for _, n := range m.TierCounts {
		total += n
	}
	if total != m.Reconfigurations+1 {
		t.Errorf("TierCounts sum to %d, want %d reconfigurations plus the initial install", total, m.Reconfigurations)
	}
	r2, err := Restore(r.State(), core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2 := r2.Metrics(); !reflect.DeepEqual(m2.TierHistory, m.TierHistory) || !reflect.DeepEqual(m2.TierCounts, m.TierCounts) {
		t.Errorf("restored history %v counts %v, want %v %v", m2.TierHistory, m2.TierCounts, m.TierHistory, m.TierCounts)
	}
}
