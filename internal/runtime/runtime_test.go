package runtime

import (
	"context"
	"testing"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/store"
	"janus/internal/topo"
)

// statefulSetup builds a diamond topology with an H-IDS on one branch and a
// stateful policy "Clients->Web, escalate via H-IDS at >=5 failed
// connections".
func statefulSetup(t *testing.T) (*topo.Topology, *compose.Graph, *core.Configurator) {
	t.Helper()
	tp := topo.NewTopology("rt")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	mid := tp.AddSwitch("mid")
	hids := tp.AddNF("hids", policy.HeavyIDS)
	link := func(x, y topo.NodeID) {
		t.Helper()
		if err := tp.AddLink(x, y, 1000); err != nil {
			t.Fatal(err)
		}
	}
	link(a, b)
	link(a, mid)
	link(mid, hids)
	link(hids, b)
	link(mid, b)
	if err := tp.AddEndpoint("c1", a, "Clients"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "Web"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web", Default: true,
		QoS: policy.QoS{BandwidthMbps: 10}})
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Chain: policy.Chain{policy.HeavyIDS},
		QoS:   policy.QoS{BandwidthMbps: 10},
		Cond:  policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})
	cg := composeWriters(t, g)
	conf, err := core.New(tp, cg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tp, cg, conf
}

// nodeNamed returns the ID of tp's node called name.
func nodeNamed(tp *topo.Topology, name string) topo.NodeID {
	for _, n := range tp.Nodes {
		if n.Name == name {
			return n.ID
		}
	}
	panic("no node " + name)
}

// crossesHIDS reports whether a dataplane walk traverses a Heavy-IDS box.
func crossesHIDS(tp *topo.Topology, walk []topo.NodeID) bool {
	for _, n := range walk {
		if tp.Nodes[n].Kind == topo.NFBox && tp.Nodes[n].NF == policy.HeavyIDS {
			return true
		}
	}
	return false
}

func TestRuntimeInitialInstall(t *testing.T) {
	_, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	if r.Current() == nil || r.Current().SatisfiedCount() != 1 {
		t.Fatal("initial configuration should satisfy the policy")
	}
	if r.Network().RuleCount() == 0 {
		t.Error("rules should be installed")
	}
	if problems := r.Verify(); len(problems) != 0 {
		t.Errorf("verification problems: %v", problems)
	}
	if r.Metrics().Reconfigurations != 0 {
		t.Error("initial install is not a reconfiguration")
	}
}

func TestStatefulTriggerUsesReservedPath(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	// Below the threshold: no reroute.
	for i := 0; i < 4; i++ {
		if err := r.ReportEvent(context.Background(), "c1", "srv", policy.FailedConnections, 1); err != nil {
			t.Fatal(err)
		}
	}
	if r.Metrics().StatefulReroutes != 0 {
		t.Error("no reroute expected below threshold")
	}
	// Fifth failure crosses >=5: the flow must move onto an H-IDS path.
	if err := r.ReportEvent(context.Background(), "c1", "srv", policy.FailedConnections, 1); err != nil {
		t.Fatal(err)
	}
	if r.Metrics().StatefulReroutes != 1 {
		t.Errorf("reroutes = %d, want 1", r.Metrics().StatefulReroutes)
	}
	// Traffic now traverses the H-IDS.
	walk, err := r.Network().Lookup("c1", "srv", policy.TCP, 80)
	if err != nil {
		t.Fatalf("lookup after escalation: %v", err)
	}
	if !crossesHIDS(tp, walk) {
		t.Errorf("escalated walk %v skips H-IDS", walk)
	}
}

func TestMobilityReconfigures(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	// Move the client to mid; the policy must be re-satisfied from there.
	midID := nodeNamed(tp, "mid")
	if err := r.MoveEndpoint(context.Background(), "c1", midID); err != nil {
		t.Fatal(err)
	}
	if r.Metrics().Reconfigurations != 1 {
		t.Errorf("reconfigurations = %d, want 1", r.Metrics().Reconfigurations)
	}
	if r.Current().SatisfiedCount() != 1 {
		t.Error("policy should remain satisfied after the move")
	}
	if problems := r.Verify(); len(problems) != 0 {
		t.Errorf("verification problems after move: %v", problems)
	}
}

func TestMembershipChange(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	aID := nodeNamed(tp, "a")
	// c2 starts outside every group the policy names.
	if err := tp.AddEndpoint("c2", aID, "Guests"); err != nil {
		t.Fatal(err)
	}
	r := start(t, conf, nil)
	for _, asg := range r.Current().Assignments {
		if asg.Src == "c2" {
			t.Fatal("c2 configured before it joined Clients")
		}
	}
	// Relabel c2 into Clients: the group grows, the policy must now cover
	// both pairs.
	if err := r.RelabelEndpoint(context.Background(), "c2", "Clients"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, asg := range r.Current().Assignments {
		if asg.Src == "c2" {
			found = true
		}
	}
	if !found {
		t.Error("new member c2 has no configured path")
	}
	// Remove c1 from the group.
	if err := r.RelabelEndpoint(context.Background(), "c1", "Guests"); err != nil {
		t.Fatal(err)
	}
	for _, asg := range r.Current().Assignments {
		if asg.Src == "c1" {
			t.Error("relabelled endpoint still has assignments")
		}
	}
}

// temporalSetup builds two switches a and b, joined through a firewall fw
// and a byte counter bc, and one policy C→S via BC from 18 h to 9 h and via
// FW from 9 h to 18 h.
func temporalSetup(t *testing.T) (*topo.Topology, *core.Configurator) {
	t.Helper()
	tp := topo.NewTopology("t")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	fw := tp.AddNF("fw", policy.Firewall)
	bc := tp.AddNF("bc", policy.ByteCounter)
	link := func(x, y topo.NodeID) {
		t.Helper()
		if err := tp.AddLink(x, y, 1000); err != nil {
			t.Fatal(err)
		}
	}
	link(a, fw)
	link(fw, b)
	link(a, bc)
	link(bc, b)
	if err := tp.AddEndpoint("c1", a, "C"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "S"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "C", Dst: "S", Chain: policy.Chain{policy.ByteCounter},
		QoS:  policy.QoS{BandwidthMbps: 5},
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 18, End: 9}}})
	g.AddEdge(policy.Edge{Src: "C", Dst: "S", Chain: policy.Chain{policy.Firewall},
		QoS:  policy.QoS{BandwidthMbps: 5},
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 9, End: 18}}})
	cg := composeWriters(t, g)
	conf, err := core.New(tp, cg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tp, conf
}

func TestAdvanceToTemporalBoundary(t *testing.T) {
	tp, conf := temporalSetup(t)
	r := start(t, conf, nil)
	nfOnWalk := func() policy.NFKind {
		t.Helper()
		walk, err := r.Network().Lookup("c1", "srv", policy.TCP, 80)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		for _, n := range walk {
			if tp.Nodes[n].Kind == topo.NFBox {
				return tp.Nodes[n].NF
			}
		}
		return ""
	}
	if got := nfOnWalk(); got != policy.ByteCounter {
		t.Errorf("at 0h traffic via %s, want BC", got)
	}
	if err := r.AdvanceTo(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if got := nfOnWalk(); got != policy.Firewall {
		t.Errorf("at 10h traffic via %s, want FW", got)
	}
	if r.Hour() != 10 {
		t.Errorf("hour = %d, want 10", r.Hour())
	}
	if err := r.AdvanceTo(context.Background(), 30); err == nil {
		t.Error("hour out of range should error")
	}
}

func TestUpdateGraphChurn(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	// New graph adds a byte-counter requirement — but no BC box exists, so
	// the policy becomes unsatisfiable; the runtime must still converge.
	g := policy.NewGraph("g2")
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Chain: policy.Chain{policy.ByteCounter},
		QoS:   policy.QoS{BandwidthMbps: 10}})
	cg := composeWriters(t, g)
	if err := r.UpdateGraph(context.Background(), cg, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if r.Current().SatisfiedCount() != 0 {
		t.Error("BC chain is unsatisfiable on this topology")
	}
	_ = tp
}

func TestReportEventUnknownFlow(t *testing.T) {
	_, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	if err := r.ReportEvent(context.Background(), "nope", "srv", policy.FailedConnections, 1); err == nil {
		t.Error("unknown flow should error")
	}
}

func TestFailLinkReroutes(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	// The default path is the direct a-b link; fail it and verify the flow
	// reroutes through mid while the policy stays satisfied.
	var aID, bID topo.NodeID
	for _, n := range tp.Nodes {
		switch n.Name {
		case "a":
			aID = n.ID
		case "b":
			bID = n.ID
		}
	}
	if err := r.FailLink(context.Background(), aID, bID); err != nil {
		t.Fatal(err)
	}
	if r.Current().SatisfiedCount() != 1 {
		t.Error("policy should survive the link failure via the mid path")
	}
	walk, err := r.Network().Lookup("c1", "srv", policy.TCP, 80)
	if err != nil {
		t.Fatalf("lookup after failure: %v", err)
	}
	for i := 0; i+1 < len(walk); i++ {
		if (walk[i] == aID && walk[i+1] == bID) || (walk[i] == bID && walk[i+1] == aID) {
			t.Errorf("walk %v still uses the failed link", walk)
		}
	}
	if err := r.FailLink(context.Background(), aID, bID); err == nil {
		t.Error("failing the same link twice should error")
	}
}

func TestSolverMetricsRecorded(t *testing.T) {
	tp, _, conf := statefulSetup(t)
	r := start(t, conf, nil)
	m := r.Metrics()
	if m.SolverWorkers < 1 {
		t.Errorf("SolverWorkers = %d, want >= 1 after the initial solve", m.SolverWorkers)
	}
	if m.SolverNodes < 1 {
		t.Errorf("SolverNodes = %d, want >= 1", m.SolverNodes)
	}
	nodesBefore := m.SolverNodes
	// A reconfiguration accumulates nodes and refreshes the worker count.
	midID := nodeNamed(tp, "mid")
	if err := r.MoveEndpoint(context.Background(), "c1", midID); err != nil {
		t.Fatal(err)
	}
	m = r.Metrics()
	if m.SolverNodes <= nodesBefore {
		t.Errorf("SolverNodes = %d, want > %d after reconfiguration", m.SolverNodes, nodesBefore)
	}
	if m.SolverNodeRate < 0 {
		t.Errorf("SolverNodeRate = %g, want >= 0", m.SolverNodeRate)
	}
}

// kindJournal records the kind of every journaled record.
type kindJournal struct{ kinds []store.Kind }

func (j *kindJournal) Append(rec *store.Record) error {
	j.kinds = append(j.kinds, rec.Kind)
	return nil
}

// TestCounterEventOnTemporalEdge is the regression test for counter events
// after 06:00: on a four-period policy the active edge at hour 12 is a
// non-default one, and ReportEvent used to take that alone for an
// escalation — re-install, re-audit, KindEscalate, StatefulReroutes++ — on
// every count. Only an increment that changes which edge is active may
// reroute.
func TestCounterEventOnTemporalEdge(t *testing.T) {
	tp, _, _ := statefulSetup(t)
	g := policy.NewGraph("g")
	for w := 0; w < 4; w++ {
		g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web", Default: w == 0,
			QoS:  policy.QoS{BandwidthMbps: float64(10 + w)},
			Cond: policy.Condition{Window: policy.TimeWindow{Start: 6 * w, End: 6 * (w + 1)}}})
	}
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Chain: policy.Chain{policy.HeavyIDS},
		QoS:   policy.QoS{BandwidthMbps: 10},
		Cond:  policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})
	cg := composeWriters(t, g)
	conf, err := core.New(tp, cg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j := &kindJournal{}
	r := start(t, conf, j)
	if err := r.AdvanceTo(ctx, 12); err != nil {
		t.Fatal(err)
	}
	_, p := r.policyFor("c1", "srv")
	if edge, i, ok := compose.ActiveEdge(p, 12, nil); !ok || i <= 0 {
		t.Fatalf("the active edge at hour 12 should be a non-default one, got %v (ok=%v)", edge, ok)
	}

	before, journaled := r.Metrics(), len(j.kinds)
	for i := 0; i < 4; i++ {
		if err := r.ReportEvent(ctx, "c1", "srv", policy.FailedConnections, 1); err != nil {
			t.Fatal(err)
		}
	}
	after := r.Metrics()
	if after.Reconfigurations != before.Reconfigurations || after.StatefulReroutes != before.StatefulReroutes {
		t.Errorf("counts below the threshold moved Reconfigurations %d -> %d, StatefulReroutes %d -> %d",
			before.Reconfigurations, after.Reconfigurations, before.StatefulReroutes, after.StatefulReroutes)
	}
	for _, k := range j.kinds[journaled:] {
		if k != store.KindCounter {
			t.Errorf("a count below the threshold was journaled as %q, want %q", k, store.KindCounter)
		}
	}
	if len(j.kinds) != journaled+4 {
		t.Errorf("%d records for 4 counter events", len(j.kinds)-journaled)
	}

	// The fifth failure trips the condition: the escalation still happens.
	if err := r.ReportEvent(ctx, "c1", "srv", policy.FailedConnections, 1); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().StatefulReroutes; got != before.StatefulReroutes+1 {
		t.Errorf("StatefulReroutes = %d after the tripping count, want %d", got, before.StatefulReroutes+1)
	}
	if k := j.kinds[len(j.kinds)-1]; k != store.KindEscalate {
		t.Errorf("the tripping count was journaled as %q, want %q", k, store.KindEscalate)
	}
	walk, err := r.Network().Lookup("c1", "srv", policy.TCP, 80)
	if err != nil {
		t.Fatalf("lookup after escalation: %v", err)
	}
	if !crossesHIDS(tp, walk) {
		t.Errorf("escalated walk %v skips H-IDS", walk)
	}
	// A further count keeps the escalated edge active: one more append.
	if err := r.ReportEvent(ctx, "c1", "srv", policy.FailedConnections, 1); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().StatefulReroutes; got != before.StatefulReroutes+1 {
		t.Errorf("StatefulReroutes = %d after a count past the threshold, want %d", got, before.StatefulReroutes+1)
	}
	if problems := r.Verify(); len(problems) != 0 {
		t.Errorf("verification problems: %v", problems)
	}
}
