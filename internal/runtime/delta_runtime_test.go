package runtime

import (
	"context"
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
	"janus/internal/workload"
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
	web, ok := rt.conf.Graph().Lookup("Clients", "Web")
	if !ok {
		t.Fatal("web policy not found")
	}
	db, ok := rt.conf.Graph().Lookup("Clients", "DB")
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
// keep the escalated pair's H-IDS chain hard (the bug class of an install
// that silently de-escalates a counter-escalated chain).
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
		t.Error("frozen web policy lost its hard escalation-edge assignment")
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after freezing escalated policy: %v", vs)
	}
}

// TestEscalationWithoutPathUnconfigures escalates c1's flow to web onto
// the H-IDS chain, then moves web onto c1's switch, where that chain has no
// path. The move must succeed and leave the web policy unconfigured, since
// the escalated pair has no hard path; an unrelated move and an hour tick
// after it must succeed too. Moving web on to e2 configures the policy
// again, with the escalated flow through the H-IDS.
func TestEscalationWithoutPathUnconfigures(t *testing.T) {
	rt, sw, webID, _ := deltaRT(t, core.Config{})
	ctx := context.Background()
	audited := func(step string) {
		t.Helper()
		if vs := rt.Audit(); len(vs) != 0 {
			t.Fatalf("audit after %s: %v", step, vs)
		}
	}
	if err := rt.ReportEvent(ctx, "c1", "web", policy.FailedConnections, 5); err != nil {
		t.Fatalf("escalating: %v", err)
	}
	if err := rt.MoveEndpoint(ctx, "web", sw["e1"]); err != nil {
		t.Fatalf("moving web onto c1's switch: %v", err)
	}
	if rt.Current().Configured[webID] {
		t.Error("web policy configured although its escalated pair has no H-IDS path")
	}
	audited("moving web onto e1")
	if err := rt.MoveEndpoint(ctx, "db", sw["core2"]); err != nil {
		t.Fatalf("unrelated move: %v", err)
	}
	audited("the unrelated move")
	if err := rt.AdvanceTo(ctx, 10); err != nil {
		t.Fatalf("hour tick: %v", err)
	}
	audited("the hour tick")

	before := rt.Metrics().Reconfigurations
	if err := rt.MoveEndpoint(ctx, "web", sw["e2"]); err != nil {
		t.Fatalf("moving web onto e2: %v", err)
	}
	if !rt.Current().Configured[webID] {
		t.Fatal("web policy still unconfigured after web left c1's switch")
	}
	if got := rt.Metrics().Reconfigurations; got != before+1 {
		t.Errorf("Reconfigurations = %d, want %d", got, before+1)
	}
	audited("moving web onto e2")
	walk, err := rt.Network().Lookup("c1", "web", policy.TCP, 80)
	if err != nil {
		t.Fatalf("lookup c1->web: %v", err)
	}
	if !crossesHIDS(rt.topo, walk) {
		t.Errorf("escalated walk %v skips H-IDS", walk)
	}
}

// TestEscalationFreezesOtherPolicies trips the escalation of every source
// flow of a fig11 Ans instance, one flow at a time. Every trip must
// install. One whose policy held the escalation's reservation re-solves
// that policy alone, in the capacity the reservation freed, so no other
// policy changes a path (§5.3: "no other policy will have to change its
// path").
func TestEscalationFreezesOtherPolicies(t *testing.T) {
	w, err := workload.Generate("Ans", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, StatefulEdges: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 5, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt, err := New(ctx, conf)
	if err != nil {
		t.Fatal(err)
	}
	others := func(res *core.Result, pid int) *core.Result {
		out := &core.Result{}
		for _, a := range res.Assignments {
			if a.Policy != pid {
				out.Assignments = append(out.Assignments, a)
			}
		}
		return out
	}
	reserved := 0
	for i := 0; i < w.Spec.Policies; i++ {
		for e := 0; e < w.Spec.EndpointsPerPolicy; e++ {
			src, dst := fmt.Sprintf("p%d-e%d", i, e), fmt.Sprintf("p%d-dst", i)
			pid, _ := rt.policyFor(src, dst)
			prev := rt.Current()
			held := false
			for _, a := range prev.Assignments {
				held = held || (a.Policy == pid && a.Src == src && a.Dst == dst && a.Role == core.SoftEdge)
			}
			if err := rt.ReportEvent(ctx, src, dst, policy.FailedConnections, 5); err != nil {
				t.Fatalf("escalating %s->%s: %v", src, dst, err)
			}
			if !held {
				continue
			}
			reserved++
			if n := core.CountPathChanges(others(prev, pid), others(rt.Current(), pid)); n != 0 {
				t.Errorf("escalating %s->%s onto its reservation changed %d paths of other policies", src, dst, n)
			}
		}
	}
	if reserved == 0 {
		t.Fatal("no escalation had a reservation to use")
	}
	t.Logf("%d of %d escalations used a reservation", reserved, w.Spec.Policies*w.Spec.EndpointsPerPolicy)
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after every escalation: %v", vs)
	}
}

// quarantineCore2 builds deltaRT's runtime, makes every operation on core2
// fail and moves c1 onto core2, which quarantines it. It returns the
// runtime with core2's faults still on, and the move's error.
func quarantineCore2(t *testing.T) (*Runtime, map[string]topo.NodeID, error) {
	t.Helper()
	rt, sw, _, _ := deltaRT(t, core.Config{})
	ctx := context.Background()
	// Drain hard-path rules off core2 (web flows terminate there; db flows
	// never cross it). The escalation reservation's soft path may still
	// traverse core2, so stale rules stay parked on it.
	if err := rt.MoveEndpoint(ctx, "web", sw["agg"]); err != nil {
		t.Fatal(err)
	}
	rt.Network().InjectFaults(dataplane.FaultPlan{
		Seed:     7,
		Switches: map[topo.NodeID]dataplane.SwitchFaults{sw["core2"]: {FailRate: 1}},
	})
	// Moving c1 onto core2 forces ingress rules there (sources get ingress
	// rules; destinations deliver without one), which fail until the
	// runtime quarantines core2.
	err := rt.MoveEndpoint(ctx, "c1", sw["core2"])
	if got := rt.Metrics().QuarantinedSwitches; got != 1 {
		t.Fatalf("QuarantinedSwitches = %d, want 1", got)
	}
	return rt, sw, err
}

// TestDeltaAfterQuarantine quarantines a switch via retry exhaustion, then
// checks that no installed assignment visits it any more and that the
// runtime still serves later events incrementally.
func TestDeltaAfterQuarantine(t *testing.T) {
	rt, sw, err := quarantineCore2(t)
	// The quarantine writes off the stale rules parked on core2, so the
	// re-solve around it installs, with c1 stranded on the island.
	if err != nil {
		t.Fatalf("move onto the all-failing switch should install through the quarantine: %v", err)
	}
	if _, err := rt.Network().Lookup("c1", "web", policy.TCP, 80); err == nil {
		t.Error("c1 on the quarantined switch still reaches web")
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after the quarantine: %v", vs)
	}
	// The install around the quarantine already left c1 stranded, so
	// single-policy events are incremental again at once: the unconfigured
	// policies carry no assignments, which freeze trivially.
	rt.Network().InjectFaults(dataplane.FaultPlan{})
	for _, to := range []string{"e2", "agg"} {
		before := rt.Metrics()
		if err := rt.MoveEndpoint(context.Background(), "web", sw[to]); err != nil {
			t.Fatalf("post-quarantine move to %s: %v", to, err)
		}
		if m := rt.Metrics(); m.DeltaSolves != before.DeltaSolves+1 {
			t.Errorf("move to %s: DeltaSolves = %d, want %d after quarantine settled", to, m.DeltaSolves, before.DeltaSolves+1)
		}
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

// TestQuarantinedSwitchDoesNotWedge leaves core2 failing every operation
// after its quarantine. Its rules were written off with the quarantine, so
// no later plan touches it, and every later event must install.
func TestQuarantinedSwitchDoesNotWedge(t *testing.T) {
	rt, sw, _ := quarantineCore2(t)
	ctx := context.Background()
	for i, to := range []string{"e2", "agg", "e2", "agg"} {
		if err := rt.MoveEndpoint(ctx, "web", sw[to]); err != nil {
			t.Fatalf("move %d of web, to %s, with the quarantined core2 still failing: %v", i+1, to, err)
		}
		if vs := rt.Audit(); len(vs) != 0 {
			t.Fatalf("audit after move %d: %v", i+1, vs)
		}
	}
	if n := len(rt.Network().RulesAt(sw["core2"])); n != 0 {
		t.Errorf("the quarantined core2 holds %d rules", n)
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
	if err := rt.reconfigureEvent(ctx, rt.quarantine(a)); err != nil {
		t.Fatal(err)
	}
	if d := rt.Current().Delta; d == nil || d.Affected != 1 || d.Frozen != 2 {
		t.Errorf("DeltaStats = %+v, want the zero-hop policy re-solved (Affected=1 Frozen=2)", d)
	}
}

// TestUpdateGraphFailedSwapKeepsLiveGraph swaps the composed graph with a
// reconfiguration that fails: the swap must leave the live graph and
// result in place, journal nothing, and let the next event delta-solve.
// The same swap, retried, re-solves only the policy it changed, and a swap
// to the graph already live solves fully.
func TestUpdateGraphFailedSwapKeepsLiveGraph(t *testing.T) {
	conf, sw := chaosSetupCfg(t, core.Config{})
	j := &roundTripJournal{}
	ctx := context.Background()
	rt, err := NewDurable(ctx, conf, j)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRetryPolicy(noSleepPolicy())
	live, cur, recs := rt.conf.Graph(), rt.Current(), len(j.recs)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	redraw := composeWriters(t, chaosWriters(40, false)...)
	if err := rt.UpdateGraph(cancelled, redraw, core.Config{}); err == nil {
		t.Fatal("UpdateGraph with a cancelled context should fail")
	}
	if rt.conf.Graph() != live || rt.Current() != cur {
		t.Fatal("a failed swap replaced the live graph or result")
	}
	if len(j.recs) != recs {
		t.Errorf("a failed swap that changed nothing journaled %d records", len(j.recs)-recs)
	}
	before := rt.Metrics()
	if err := rt.MoveEndpoint(ctx, "web", sw["e2"]); err != nil {
		t.Fatalf("move after failed graph swap: %v", err)
	}
	if m := rt.Metrics(); m.DeltaSolves != before.DeltaSolves+1 {
		t.Errorf("DeltaSolves = %d, want %d after a failed swap", m.DeltaSolves, before.DeltaSolves+1)
	}
	if err := rt.UpdateGraph(ctx, redraw, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if d := rt.Current().Delta; d == nil || d.Affected != 1 {
		t.Errorf("bandwidth swap: DeltaStats = %+v, want the web policy alone re-solved", d)
	}
	if err := rt.UpdateGraph(ctx, composeWriters(t, chaosWriters(40, false)...), core.Config{}); err != nil {
		t.Fatal(err)
	}
	if d := rt.Current().Delta; d != nil {
		t.Errorf("a swap to the live graph was a delta solve (%+v), want a full one", d)
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after the swaps: %v", vs)
	}
}

// TestGraphSwapFullSolveHoldsPreviousPaths adds a writer whose pair sorts
// first, which renumbers both other policies, on a runtime that always
// solves fully. Every valid path is a candidate (CandidatePaths 0), so the
// full solve must find each previous assignment under its policy's new ID
// and give it one Eqn 7 α: the swap's model has exactly one variable per
// previous assignment more than a cold configure of the new graph.
func TestGraphSwapFullSolveHoldsPreviousPaths(t *testing.T) {
	cfg := core.Config{DeltaDisable: true, Workers: 1}
	conf, _ := chaosSetupCfg(t, cfg)
	ctx := context.Background()
	rt, err := New(ctx, conf)
	if err != nil {
		t.Fatal(err)
	}
	prev := rt.Current()
	g := composeWriters(t, chaosWriters(10, true)...)
	if err := rt.UpdateGraph(ctx, g, cfg); err != nil {
		t.Fatal(err)
	}
	res := rt.Current()
	if res.Delta != nil {
		t.Fatalf("swap with delta solving off served by a delta solve: %+v", res.Delta)
	}
	cold, err := core.New(rt.topo, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cold.Configure(res.Period)
	if err != nil {
		t.Fatal(err)
	}
	if alphas := res.Stats.Variables - base.Stats.Variables; alphas != len(prev.Assignments) {
		t.Errorf("swap model has %d α variables, want one per previous assignment (%d)", alphas, len(prev.Assignments))
	}
	if rt.PathChanges() != 0 {
		t.Errorf("adding an uncontended writer moved %d paths", rt.PathChanges())
	}
}

// TestGraphSwapSolvesClockPeriod swaps, at 10 h, from an all-day byte
// counter graph (one period, 0) to temporalSetup's graph, whose 9–18 h
// period needs the firewall. The swap must solve the new graph's period at
// the clock, not the live result's: period 0 would install the byte
// counter path, which fails the firewall window's audit.
func TestGraphSwapSolvesClockPeriod(t *testing.T) {
	tp, temporal := temporalSetup(t)
	allDay := policy.NewGraph("g")
	allDay.AddEdge(policy.Edge{Src: "C", Dst: "S", Chain: policy.Chain{policy.ByteCounter},
		QoS: policy.QoS{BandwidthMbps: 5}})
	conf, err := core.New(tp, composeWriters(t, allDay), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt, err := New(ctx, conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AdvanceTo(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := rt.UpdateGraph(ctx, temporal.Graph(), core.Config{}); err != nil {
		t.Fatalf("swap at 10 h: %v", err)
	}
	if got := rt.Current().Period; got != 9 {
		t.Errorf("Current().Period = %d after the swap at 10 h, want 9", got)
	}
	if vs := rt.Audit(); len(vs) != 0 {
		t.Errorf("audit after the swap: %v", vs)
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
