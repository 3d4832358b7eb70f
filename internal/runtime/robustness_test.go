package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// noSleepPolicy is the test retry policy: full budget, no real waiting,
// seeded jitter. A backoff under an abandoned step's context (see
// Step.Abandon) is where its client cancels.
func noSleepPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		Sleep: func(ctx context.Context, _ time.Duration) {
			if cancel, ok := ctx.Value(abandonKey{}).(context.CancelFunc); ok {
				cancel()
			}
		},
		Rand: rand.New(rand.NewSource(99)),
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
	r := start(t, conf, nil)
	midID := nodeNamed(tp, "mid")
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
	assertAuditClean(t, r, "quarantine")
	if len(r.topo.Neighbors(midID)) != 0 {
		t.Errorf("quarantine should remove mid's links, still has %v", r.topo.Neighbors(midID))
	}
}

// TestQuarantineDuringPeriodTransition crosses the 9 h boundary with the
// firewall failing every operation: the install of the FW period must
// quarantine fw, and the re-solve around it must stay in the period of the
// tick, leaving the policy unconfigured rather than installing the byte
// counter path of the period the clock has left.
func TestQuarantineDuringPeriodTransition(t *testing.T) {
	tp, conf := temporalSetup(t)
	ctx := context.Background()
	r := start(t, conf, nil)
	fw := tp.NodesOfKind(topo.NFBox, policy.Firewall)[0]
	r.Network().InjectFaults(dataplane.FaultPlan{
		Seed:     5,
		Switches: map[topo.NodeID]dataplane.SwitchFaults{fw: {FailRate: 1}},
	})
	if err := r.AdvanceTo(ctx, 10); err != nil {
		t.Fatalf("tick should converge via quarantine, got %v", err)
	}
	if got := r.Current().Period; got != 9 {
		t.Errorf("Current().Period = %d at hour %d, want 9", got, r.Hour())
	}
	if q := r.Quarantined(); len(q) != 1 || q[0] != fw {
		t.Errorf("Quarantined() = %v, want [%d]", q, fw)
	}
	assertAuditClean(t, r, "the tick")
}

// TestAuditRollbackKeepsPriorRules installs a result that contradicts the
// flow's escalated counter state: the self-audit must reject it, roll the
// dataplane back to the prior rule set, keep the prior result live, and
// publish no classifier generation.
func TestAuditRollbackKeepsPriorRules(t *testing.T) {
	_, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	// Escalate properly first so rules match the escalated state.
	for i := 0; i < 5; i++ {
		if err := r.ReportEvent(context.Background(), "c1", "srv", policy.FailedConnections, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotRules(r.Network())
	prior := r.Current()
	published := r.Network().Fastpath()

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
	if _, err := r.install(context.Background(), &bad); err == nil {
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
	if r.Network().Fastpath() != published {
		t.Errorf("failed audit published generation %d over %d", r.Network().Fastpath().Generation(), published.Generation())
	}
	assertAuditClean(t, r, "rollback")
}

// TestRestoreLinkRoundTrip fails a link and restores it at its remembered
// capacity.
func TestRestoreLinkRoundTrip(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
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
	assertAuditClean(t, r, "flap")
}

// TestMetricsDeepCopy guards against aliasing: mutating a returned Metrics
// must not corrupt the runtime's counters.
func TestMetricsDeepCopy(t *testing.T) {
	_, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
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
	r := start(t, conf, nil)
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

// assertAuditClean reports r's audit violations after what.
func assertAuditClean(t testing.TB, r *Runtime, what string) {
	t.Helper()
	if vs := r.Audit(); len(vs) != 0 {
		t.Errorf("audit after %s: %v", what, vs)
	}
}

// assertFastpathAgrees holds the published classifier to the interpreted
// walk over the installed tables for every ordered endpoint pair on TCP/80.
func assertFastpathAgrees(t *testing.T, r *Runtime) {
	t.Helper()
	for _, src := range r.topo.Endpoints {
		for _, dst := range r.topo.Endpoints {
			wantPath, wantErr := r.Network().Lookup(src.Name, dst.Name, policy.TCP, 80)
			gotPath, gotErr := r.Network().FastLookup(src.Name, dst.Name, policy.TCP, 80)
			if fmt.Sprint(gotPath, gotErr) != fmt.Sprint(dataplane.Path(wantPath), wantErr) {
				t.Errorf("%s->%s: fast path %v %v, tables %v %v", src.Name, dst.Name, gotPath, gotErr, wantPath, wantErr)
			}
		}
	}
}

// TestCrashWithCancelledContextRepublishes crashes a switch on the live
// paths at the first operation of the install after a live path's link
// fails and cancels the
// context in the retry backoff, so the event ends with the plan rolled
// back and no quarantine. The rollback cannot refill the crashed switch's
// table: the published classifier must be rebuilt from the tables, and the
// audit must report the flows the crashed switch now blackholes.
func TestCrashWithCancelledContextRepublishes(t *testing.T) {
	conf, _ := chaosSetup(t)
	r := start(t, conf, nil)
	if vs := r.Audit(); len(vs) != 0 {
		t.Fatalf("setup: %v", vs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := noSleepPolicy()
	p.Sleep = func(context.Context, time.Duration) { cancel() }
	r.SetRetryPolicy(p)
	crash := map[topo.NodeID]int{}
	for _, id := range r.Network().Switches() {
		crash[id] = 1
	}
	r.Network().InjectFaults(dataplane.FaultPlan{Seed: 1, CrashAfterOps: crash})
	prior := r.Current()
	var link []topo.NodeID
	for _, a := range prior.Assignments {
		if len(a.Path.Nodes) > 1 {
			link = a.Path.Nodes[:2]
			break
		}
	}
	if link == nil {
		t.Fatal("setup: no live path crosses a link")
	}
	if err := r.FailLink(ctx, link[0], link[1]); err == nil {
		t.Fatal("the link failure installed through a crashing switch")
	}
	crashed := r.Network().CrashedSwitches()
	if len(crashed) != 1 || len(r.Quarantined()) != 0 || r.Current() != prior {
		t.Fatalf("setup: crashed %v, quarantined %v, result replaced %v", crashed, r.Quarantined(), r.Current() != prior)
	}
	onPath := false
	for _, a := range prior.Assignments {
		onPath = onPath || slices.Contains(a.Path.Nodes, crashed[0])
	}
	if !onPath {
		t.Fatalf("setup: no live path crosses the crashed switch %d", crashed[0])
	}
	if vs := r.Audit(); len(vs) == 0 {
		t.Error("the audit is clean although a switch on the live paths lost its table")
	}
	assertFastpathAgrees(t, r)
}
