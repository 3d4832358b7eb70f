package dataplane

import (
	"strings"
	"testing"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// lineSetup builds a 4-switch line topology a-b-c-d with an L-IDS hanging
// between b and c, one client on a and a server on d, and one composed
// policy client->server via L-IDS at 10 Mbps.
func lineSetup(t *testing.T) (*topo.Topology, *compose.Graph, *core.Result) {
	t.Helper()
	tp := topo.NewTopology("line")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	cNode := tp.AddSwitch("c")
	d := tp.AddSwitch("d")
	ids := tp.AddNF("ids", policy.LightIDS)
	link := func(x, y topo.NodeID) {
		t.Helper()
		if err := tp.AddLink(x, y, 100); err != nil {
			t.Fatal(err)
		}
	}
	link(a, b)
	link(b, ids)
	link(ids, cNode)
	link(b, cNode)
	link(cNode, d)
	if err := tp.AddEndpoint("cl", a, "Clients"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", d, "Web"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Match: policy.Classifier{Proto: policy.TCP, Ports: []int{80}},
		Chain: policy.Chain{policy.LightIDS},
		QoS:   policy.QoS{BandwidthMbps: 10}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(tp, cg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conf.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedCount() != 1 {
		t.Fatalf("setup policy unsatisfied")
	}
	return tp, cg, res
}

// apply installs rules the way the runtime's install does — plan, apply,
// roll back on failure, account NF state, recompile — and returns the
// plan's delta report.
func apply(n *Network, rules []Rule, assignments []core.Assignment) (CompileResult, error) {
	plan := n.PlanUpdate(rules)
	if err := n.ApplyPlan(plan); err != nil {
		n.RollbackPlan(plan)
		return CompileResult{}, err
	}
	rep := plan.Report()
	rep.NFStateTransfers = n.AccountNFState(assignments)
	n.Recompile()
	return rep, nil
}

func TestCompileAndApply(t *testing.T) {
	tp, cg, res := lineSetup(t)
	n := NewNetwork(tp)
	rules := CompileRules(tp, NewGraphAdapter(cg), res)
	if len(rules) == 0 {
		t.Fatal("no rules compiled")
	}
	rep, _ := apply(n, rules, res.Assignments)
	if rep.RulesInstalled != len(rules) {
		t.Errorf("installed %d, want %d", rep.RulesInstalled, len(rules))
	}
	if rep.RulesUpdated != 0 || rep.RulesRemoved != 0 {
		t.Errorf("fresh apply should not update/remove: %+v", rep)
	}
	if rep.SwitchesTouched == 0 {
		t.Error("fresh apply should touch switches")
	}
	if n.RuleCount() != len(rules) {
		t.Errorf("network holds %d rules, want %d", n.RuleCount(), len(rules))
	}
	// Queue rate limits must reflect the reserved bandwidth.
	for _, loads := range n.queueLoad() {
		if loads != 10 {
			t.Errorf("queue load %v, want 10 Mbps per link", loads)
		}
	}
	if over := n.OverSubscribed(); len(over) != 0 {
		t.Errorf("oversubscribed: %v", over)
	}
}

func TestApplyIdempotent(t *testing.T) {
	tp, cg, res := lineSetup(t)
	n := NewNetwork(tp)
	rules := CompileRules(tp, NewGraphAdapter(cg), res)
	apply(n, rules, res.Assignments)
	rep, _ := apply(n, rules, res.Assignments)
	if rep.RulesInstalled != 0 || rep.RulesUpdated != 0 || rep.RulesRemoved != 0 {
		t.Errorf("re-applying same rules should be a no-op: %+v", rep)
	}
	if rep.NFStateTransfers != 0 {
		t.Errorf("same path should not transfer NF state: %+v", rep)
	}
}

func TestLookupFollowsRules(t *testing.T) {
	tp, cg, res := lineSetup(t)
	n := NewNetwork(tp)
	apply(n, CompileRules(tp, NewGraphAdapter(cg), res), res.Assignments)
	walk, err := n.Lookup("cl", "srv", policy.TCP, 80)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	// The walk must traverse the L-IDS (chain enforcement end to end).
	sawIDS := false
	for _, node := range walk {
		if tp.Nodes[node].Kind == topo.NFBox && tp.Nodes[node].NF == policy.LightIDS {
			sawIDS = true
		}
	}
	if !sawIDS {
		t.Errorf("forwarding walk %v skips the L-IDS", walk)
	}
	// Non-matching traffic blackholes (no rule for udp).
	if _, err := n.Lookup("cl", "srv", policy.UDP, 53); err == nil {
		t.Error("udp traffic should blackhole (no rule)")
	}
	if _, err := n.Lookup("ghost", "srv", policy.TCP, 80); err == nil {
		t.Error("unknown endpoint should error")
	}
}

func TestRuleDiffOnPathChange(t *testing.T) {
	tp, cg, res := lineSetup(t)
	n := NewNetwork(tp)
	adapter := NewGraphAdapter(cg)
	apply(n, CompileRules(tp, adapter, res), res.Assignments)
	before := n.RuleCount()

	// Force a different path: reroute the assignment through the plain b-c
	// link by fabricating a modified result (what a reconfiguration that
	// changed paths would produce).
	mod := &core.Result{Period: 0, Configured: res.Configured}
	for _, a := range res.Assignments {
		// Replace the path with one avoiding the IDS: a-b-c-d.
		a2 := a
		a2.Path = pathFromNames(t, tp, "a", "b", "c", "d")
		mod.Assignments = append(mod.Assignments, a2)
	}
	rep, _ := apply(n, CompileRules(tp, adapter, mod), mod.Assignments)
	if rep.RulesUpdated == 0 && rep.RulesInstalled == 0 {
		t.Error("path change should modify rules")
	}
	if rep.SwitchesTouched == 0 {
		t.Error("path change should touch switches")
	}
	_ = before
}

func TestNFStateTransferOnBoxChange(t *testing.T) {
	// Two IDS boxes on parallel segments; moving the flow from one to the
	// other must count a state transfer (§2.2's L-IDS migration example).
	tp := topo.NewTopology("2ids")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	ids1 := tp.AddNF("ids1", policy.LightIDS)
	ids2 := tp.AddNF("ids2", policy.LightIDS)
	link := func(x, y topo.NodeID) {
		t.Helper()
		if err := tp.AddLink(x, y, 100); err != nil {
			t.Fatal(err)
		}
	}
	link(a, ids1)
	link(ids1, b)
	link(a, ids2)
	link(ids2, b)
	if err := tp.AddEndpoint("cl", a, "C"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "S"); err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(tp)
	asg := func(mid topo.NodeID) []core.Assignment {
		return []core.Assignment{{
			Policy: 0, Role: core.HardEdge, Src: "cl", Dst: "srv",
			Path: pathOfIDs(a, mid, b), BW: 5,
		}}
	}
	rep, _ := apply(n, nil, asg(ids1))
	if rep.NFStateTransfers != 0 {
		t.Errorf("first placement transfers = %d, want 0", rep.NFStateTransfers)
	}
	rep, _ = apply(n, nil, asg(ids1))
	if rep.NFStateTransfers != 0 {
		t.Errorf("same box transfers = %d, want 0", rep.NFStateTransfers)
	}
	rep, _ = apply(n, nil, asg(ids2))
	if rep.NFStateTransfers != 1 {
		t.Errorf("box change transfers = %d, want 1", rep.NFStateTransfers)
	}
}

func TestSoftAssignmentsInstallNoRules(t *testing.T) {
	tp, _, _ := lineSetup(t)
	soft := &core.Result{Assignments: []core.Assignment{{
		Policy: 0, Role: core.SoftEdge, Src: "cl", Dst: "srv",
		Path: pathFromNames(t, tp, "a", "b", "c", "d"), BW: 10,
	}}}
	rules := CompileRules(tp, stubLookup{}, soft)
	if len(rules) != 0 {
		t.Errorf("soft assignments must not install rules, got %d", len(rules))
	}
}

func TestGraphAdapterUnknownSlots(t *testing.T) {
	cg, err := compose.New(nil).Compose()
	if err != nil {
		t.Fatal(err)
	}
	a := NewGraphAdapter(cg)
	if m := a.MatchFor(99, 0); !m.MatchAll() {
		t.Errorf("unknown policy should yield match-all, got %v", m)
	}
}

func TestStringRendering(t *testing.T) {
	tp, cg, res := lineSetup(t)
	n := NewNetwork(tp)
	apply(n, CompileRules(tp, NewGraphAdapter(cg), res), res.Assignments)
	s := n.String()
	if !strings.Contains(s, "cl->srv") {
		t.Errorf("String output missing flow: %q", s)
	}
}

type stubLookup struct{}

func (stubLookup) MatchFor(int, int) policy.Classifier { return policy.Classifier{} }

func pathFromNames(t *testing.T, tp *topo.Topology, names ...string) (p paths.Path) {
	t.Helper()
	for _, name := range names {
		found := false
		for _, n := range tp.Nodes {
			if n.Name == name {
				p.Nodes = append(p.Nodes, n.ID)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %q not found", name)
		}
	}
	return p
}

func pathOfIDs(ids ...topo.NodeID) (p paths.Path) {
	p.Nodes = append(p.Nodes, ids...)
	return p
}
