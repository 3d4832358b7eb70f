package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/store"
	"janus/internal/topo"
)

// deltaRT builds a runtime on the chaos fabric with the given solver
// config and returns it with the switch map and the two policy IDs.
func deltaRT(t *testing.T, cfg core.Config) (*Runtime, map[string]topo.NodeID, int, int) {
	t.Helper()
	conf, sw := chaosSetupCfg(t, cfg)
	rt, err := New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	web, ok := rt.graph.Lookup("Clients", "Web")
	if !ok {
		t.Fatal("web policy not found")
	}
	db, ok := rt.graph.Lookup("Clients", "DB")
	if !ok {
		t.Fatal("db policy not found")
	}
	return rt, sw, web.ID, db.ID
}

// islandE1 empties switch e1 of endpoints and then fails both of its
// links, leaving it a connected-to-nothing island.
func islandE1(t *testing.T, rt *Runtime, sw map[string]topo.NodeID) {
	t.Helper()
	ctx := context.Background()
	for _, c := range []string{"c1", "c2"} {
		if err := rt.MoveEndpoint(ctx, c, sw["agg"]); err != nil {
			t.Fatalf("moving %s off e1: %v", c, err)
		}
	}
	if err := rt.FailLink(ctx, sw["e1"], sw["agg"]); err != nil {
		t.Fatal(err)
	}
	if err := rt.FailLink(ctx, sw["e1"], sw["core1"]); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaMoveOntoIsland moves an endpoint onto a switch whose links have
// all failed: the delta sub-model must conclude the policy is unsatisfiable
// there and still produce a clean merged install (unconfigured pairs
// blackhole; the satisfied drop of one stays within the default bound).
func TestDeltaMoveOntoIsland(t *testing.T) {
	rt, sw, webID, _ := deltaRT(t, core.Config{})
	islandE1(t, rt, sw)
	before := rt.Metrics()
	if err := rt.MoveEndpoint(context.Background(), "web", sw["e1"]); err != nil {
		t.Fatalf("move onto island should degrade, not fail: %v", err)
	}
	m := rt.Metrics()
	if m.DeltaSolves != before.DeltaSolves+1 {
		t.Errorf("DeltaSolves = %d, want %d (island move served incrementally)", m.DeltaSolves, before.DeltaSolves+1)
	}
	if rt.Current().Delta == nil {
		t.Error("current result should carry DeltaStats")
	}
	if rt.Current().Configured[webID] {
		t.Error("web policy cannot be satisfiable with its server on an island")
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after island move: %v", vs)
	}
}

// TestDeltaGuardFallsBackToFull tightens the optimality guard to zero
// allowed drop: the same island move must discard the delta result and
// converge through the full re-solve instead.
func TestDeltaGuardFallsBackToFull(t *testing.T) {
	rt, sw, webID, _ := deltaRT(t, core.Config{DeltaMaxSatisfiedDrop: -1})
	islandE1(t, rt, sw)
	before := rt.Metrics()
	if err := rt.MoveEndpoint(context.Background(), "web", sw["e1"]); err != nil {
		t.Fatalf("move onto island should degrade, not fail: %v", err)
	}
	m := rt.Metrics()
	if m.DeltaFallbacks != before.DeltaFallbacks+1 {
		t.Errorf("DeltaFallbacks = %d, want %d (guard must trip)", m.DeltaFallbacks, before.DeltaFallbacks+1)
	}
	if m.DeltaSolves != before.DeltaSolves {
		t.Errorf("DeltaSolves moved %d -> %d on a guard-tripped event", before.DeltaSolves, m.DeltaSolves)
	}
	if rt.Current().Delta != nil {
		t.Error("full-solve result must not carry DeltaStats")
	}
	if rt.Current().Configured[webID] {
		t.Error("web policy cannot be satisfiable with its server on an island")
	}
}

// TestDeltaFreezesEscalatedPolicy escalates the stateful web policy, then
// serves an unrelated event incrementally: the frozen web assignments must
// keep the promoted H-IDS chain hard (the PR 3 bug class — an install that
// silently demotes a counter-escalated chain).
func TestDeltaFreezesEscalatedPolicy(t *testing.T) {
	rt, sw, webID, _ := deltaRT(t, core.Config{})
	ctx := context.Background()
	if err := rt.ReportEvent(ctx, "c1", "web", policy.FailedConnections, 5); err != nil {
		t.Fatalf("escalating: %v", err)
	}
	before := rt.Metrics()
	if err := rt.MoveEndpoint(ctx, "db", sw["core2"]); err != nil {
		t.Fatalf("moving db: %v", err)
	}
	m := rt.Metrics()
	if m.DeltaSolves != before.DeltaSolves+1 {
		t.Errorf("DeltaSolves = %d, want %d (db move should freeze the web policy)", m.DeltaSolves, before.DeltaSolves+1)
	}
	res := rt.Current()
	if res.Delta == nil {
		t.Fatal("current result should carry DeltaStats")
	}
	escalated := false
	for _, a := range res.Assignments {
		if a.Policy == webID && a.Src == "c1" && a.Dst == "web" && a.EdgeIdx == 1 && a.Role == core.HardEdge {
			escalated = true
		}
	}
	if !escalated {
		t.Error("frozen web policy lost its promoted escalation-edge assignment")
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after freezing escalated policy: %v", vs)
	}
}

// TestDeltaAfterQuarantine quarantines a switch via retry exhaustion, then
// checks that no installed assignment visits it any more and that the
// runtime still serves later events incrementally.
func TestDeltaAfterQuarantine(t *testing.T) {
	rt, sw, _, _ := deltaRT(t, core.Config{})
	ctx := context.Background()
	// Drain hard-path rules off core2 (web flows terminate there; db flows
	// never cross it). The escalation reservation's soft path may still
	// traverse core2, so the quarantine below cascades: the degraded
	// re-solve cannot delete those rules either and the event hard-fails.
	if err := rt.MoveEndpoint(ctx, "web", sw["agg"]); err != nil {
		t.Fatal(err)
	}
	live := rt.Current()
	rt.Network().InjectFaults(dataplane.FaultPlan{
		Seed:     7,
		Switches: map[topo.NodeID]dataplane.SwitchFaults{sw["core2"]: {FailRate: 1}},
	})
	// Moving c1 onto core2 forces ingress rules there (sources get ingress
	// rules; destinations deliver without one), which fail until the
	// runtime quarantines core2. The cascade then hard-fails the event:
	// the degraded re-solve cannot delete the stale soft-path rules parked
	// on the dead switch either. c1 stays stranded on the island.
	if err := rt.MoveEndpoint(ctx, "c1", sw["core2"]); err == nil {
		t.Fatal("move onto the all-failing switch should hard-fail through the quarantine cascade")
	}
	if got := rt.Metrics().QuarantinedSwitches; got != 1 {
		t.Fatalf("QuarantinedSwitches = %d, want 1", got)
	}
	// The install never landed, so the next event is served against the
	// pre-event result.
	if rt.Current() != live {
		t.Fatal("the quarantine cascade replaced the live result")
	}
	rt.Network().InjectFaults(dataplane.FaultPlan{})
	// The first event after the cascade widens to both policies (their
	// frozen paths no longer start at c1's attach switch), trips the
	// affected-share gate, and reconciles through a full solve.
	before := rt.Metrics()
	if err := rt.MoveEndpoint(ctx, "web", sw["e2"]); err != nil {
		t.Fatalf("post-quarantine settling move: %v", err)
	}
	m := rt.Metrics()
	if m.DeltaFallbacks != before.DeltaFallbacks+1 {
		t.Errorf("DeltaFallbacks = %d, want %d (stale frozen paths must widen past the share gate)",
			m.DeltaFallbacks, before.DeltaFallbacks+1)
	}
	// Once reconciled, single-policy events are incremental again: the
	// unconfigured policies carry no assignments, which freeze trivially.
	before = rt.Metrics()
	if err := rt.MoveEndpoint(ctx, "web", sw["agg"]); err != nil {
		t.Fatalf("post-quarantine move: %v", err)
	}
	if m := rt.Metrics(); m.DeltaSolves != before.DeltaSolves+1 {
		t.Errorf("DeltaSolves = %d, want %d after quarantine settled", m.DeltaSolves, before.DeltaSolves+1)
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after post-quarantine delta: %v", vs)
	}
	// Nothing is routed over the quarantined island: its links are gone,
	// so no current assignment can traverse it.
	for _, a := range rt.Current().Assignments {
		if slices.Contains(a.Path.Nodes, sw["core2"]) {
			t.Errorf("policy %d still routes %s->%s over the quarantined switch: %v", a.Policy, a.Src, a.Dst, a.Path.Nodes)
		}
	}
}

// TestQuarantineSeedsZeroHopPolicy quarantines a leaf switch whose only
// traffic is a same-switch pair. Its zero-hop path crosses no link, so no
// validity check rejects it once the switch's links are gone: the
// quarantine must seed its policy into the sub-model itself.
func TestQuarantineSeedsZeroHopPolicy(t *testing.T) {
	tp := topo.NewTopology("leaf")
	a, b, c := tp.AddSwitch("a"), tp.AddSwitch("b"), tp.AddSwitch("c")
	for _, l := range [][2]topo.NodeID{{a, b}, {b, c}} {
		if err := tp.AddLink(l[0], l[1], 100); err != nil {
			t.Fatal(err)
		}
	}
	var graphs []*policy.Graph
	for i, at := range [][2]topo.NodeID{{a, a}, {b, c}, {b, c}} {
		src, dst := fmt.Sprintf("S%d", i), fmt.Sprintf("D%d", i)
		if err := tp.AddEndpoint(strings.ToLower(src), at[0], src); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddEndpoint(strings.ToLower(dst), at[1], dst); err != nil {
			t.Fatal(err)
		}
		g := policy.NewGraph(src)
		g.AddEdge(policy.Edge{Src: src, Dst: dst, Default: true, QoS: policy.QoS{BandwidthMbps: 10}})
		graphs = append(graphs, g)
	}
	cg, err := compose.New(nil).Compose(graphs...)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(tp, cg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt, err := New(ctx, conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.quarantine(ctx, a, errors.New("injected")); err != nil {
		t.Fatal(err)
	}
	if d := rt.Current().Delta; d == nil || d.Affected != 1 || d.Frozen != 2 {
		t.Errorf("DeltaStats = %+v, want the zero-hop policy re-solved (Affected=1 Frozen=2)", d)
	}
}

// TestUpdateGraphSolvesFullyUntilInstall swaps the composed graph with a
// reconfiguration that fails: the next event must solve fully, since the
// live result speaks the old graph's policy IDs, and the one after that,
// with a result of the new graph installed, incrementally again.
func TestUpdateGraphSolvesFullyUntilInstall(t *testing.T) {
	rt, sw, _, _ := deltaRT(t, core.Config{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.UpdateGraph(cancelled, rt.graph, core.Config{}); err == nil {
		t.Fatal("UpdateGraph with a cancelled context should fail")
	}
	// The next event cannot be served incrementally and must full-solve
	// cleanly.
	ctx := context.Background()
	before := rt.Metrics()
	if err := rt.MoveEndpoint(ctx, "web", sw["e2"]); err != nil {
		t.Fatalf("move after failed graph swap: %v", err)
	}
	m := rt.Metrics()
	if m.DeltaSolves != before.DeltaSolves || m.DeltaFallbacks != before.DeltaFallbacks {
		t.Errorf("event after the failed graph swap recorded delta activity: solves %d->%d fallbacks %d->%d",
			before.DeltaSolves, m.DeltaSolves, before.DeltaFallbacks, m.DeltaFallbacks)
	}
	before = rt.Metrics()
	if err := rt.MoveEndpoint(ctx, "web", sw["core2"]); err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics(); m.DeltaSolves != before.DeltaSolves+1 {
		t.Errorf("DeltaSolves = %d, want %d once the new graph's result is installed", m.DeltaSolves, before.DeltaSolves+1)
	}
}

// TestRestoreServesDeltaAtOnce recovers a journaled runtime and checks the
// restored instance serves its first event incrementally.
func TestRestoreServesDeltaAtOnce(t *testing.T) {
	conf, sw := chaosSetupCfg(t, core.Config{})
	fs := store.NewCrashFS(5)
	st, err := store.Open(fs, "data", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDurable(context.Background(), conf, st)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	ctx := context.Background()
	if err := rt.MoveEndpoint(ctx, "web", sw["e2"]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(fs, "data", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rt2, err := Restore(st2.RecoveredState(), core.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2.SetRetryPolicy(noSleepPolicy())
	before := rt2.Metrics()
	if err := rt2.MoveEndpoint(ctx, "web", sw["core1"]); err != nil {
		t.Fatalf("post-restore move: %v", err)
	}
	if m := rt2.Metrics(); m.DeltaSolves != before.DeltaSolves+1 {
		t.Errorf("DeltaSolves = %d, want %d on the restored runtime", m.DeltaSolves, before.DeltaSolves+1)
	}
	if vs := rt2.Audit(); len(vs) != 0 {
		t.Errorf("audit after post-restore delta: %v", vs)
	}
}
