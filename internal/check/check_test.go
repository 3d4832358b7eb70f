package check

import (
	"testing"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// auditSetup configures a small network with one chained policy and one
// uncovered endpoint, returning everything Audit needs.
func auditSetup(t *testing.T) (*topo.Topology, *compose.Graph, *dataplane.Network, *core.Result) {
	t.Helper()
	tp := topo.NewTopology("audit")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	fw := tp.AddNF("fw", policy.Firewall)
	link := func(x, y topo.NodeID) {
		t.Helper()
		if err := tp.AddLink(x, y, 100); err != nil {
			t.Fatal(err)
		}
	}
	link(a, b)
	link(a, fw)
	link(fw, b)
	if err := tp.AddEndpoint("c1", a, "Clients"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "Web"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("outsider", a, "Guests"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Chain: policy.Chain{policy.Firewall},
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
		t.Fatal("setup policy unsatisfied")
	}
	net := dataplane.NewNetwork(tp)
	install(t, net, dataplane.CompileRules(tp, dataplane.NewGraphAdapter(cg), res))
	return tp, cg, net, res
}

// install applies rules to net and publishes the compiled classifier Audit
// reads.
func install(t *testing.T, net *dataplane.Network, rules []dataplane.Rule) {
	t.Helper()
	if err := net.ApplyPlan(net.PlanUpdate(rules)); err != nil {
		t.Fatal(err)
	}
	net.Recompile()
}

func TestAuditCleanConfiguration(t *testing.T) {
	tp, cg, net, res := auditSetup(t)
	if got := Audit(tp, cg, net, res, 0, nil); len(got) != 0 {
		t.Errorf("clean configuration should audit clean, got %v", got)
	}
}

func TestAuditDetectsUnreachable(t *testing.T) {
	tp, cg, net, res := auditSetup(t)
	// Wipe the dataplane: the configured policy can no longer forward.
	empty := dataplane.NewNetwork(tp)
	_ = net
	got := Audit(tp, cg, empty, res, 0, nil)
	found := false
	for _, v := range got {
		if v.Kind == Unreachable {
			found = true
		}
	}
	if !found {
		t.Errorf("empty dataplane should be unreachable, got %v", got)
	}
}

func TestAuditDetectsChainViolation(t *testing.T) {
	tp, cg, net, res := auditSetup(t)
	_ = net
	// Install rules that bypass the firewall: direct a->b.
	bypass := dataplane.NewNetwork(tp)
	direct := *res
	direct.Assignments = nil
	for _, asg := range res.Assignments {
		a2 := asg
		a2.Path = pathOf(t, tp, "a", "b")
		direct.Assignments = append(direct.Assignments, a2)
	}
	install(t, bypass, dataplane.CompileRules(tp, dataplane.NewGraphAdapter(cg), &direct))
	got := Audit(tp, cg, bypass, res, 0, nil)
	found := false
	for _, v := range got {
		if v.Kind == ChainViolation {
			found = true
		}
	}
	if !found {
		t.Errorf("firewall bypass should be a chain violation, got %v", got)
	}
}

func TestAuditDetectsLeakyIsolation(t *testing.T) {
	tp, cg, net, res := auditSetup(t)
	// Manually install a rule for the uncovered outsider->srv flow.
	leak := []dataplane.Rule{{
		Switch: 0, Src: "outsider", Dst: "srv",
		NextHop: 1, InPort: dataplane.HostPort, Priority: 1,
	}}
	rules := append(dataplane.CompileRules(tp, dataplane.NewGraphAdapter(cg), res), leak...)
	leaky := dataplane.NewNetwork(tp)
	install(t, leaky, rules)
	_ = net
	got := Audit(tp, cg, leaky, res, 0, nil)
	found := false
	for _, v := range got {
		if v.Kind == LeakyIsolation {
			found = true
		}
	}
	if !found {
		t.Errorf("outsider rule should leak isolation, got %v", got)
	}
}

// TestAuditDetectsLeakOutsideTCP80 installs a UDP/53-only rule for the
// uncovered outsider->srv flow. The TCP/80 probe blackholes, so the leak
// shows only in the pair's other compiled classes, which the isolation
// check reads too.
func TestAuditDetectsLeakOutsideTCP80(t *testing.T) {
	tp, cg, _, res := auditSetup(t)
	leak := dataplane.Rule{
		Switch: 0, Src: "outsider", Dst: "srv",
		Match:   policy.Classifier{Proto: policy.UDP, Ports: []int{53}},
		NextHop: 1, InPort: dataplane.HostPort, Priority: 1,
	}
	leaky := dataplane.NewNetwork(tp)
	install(t, leaky, append(dataplane.CompileRules(tp, dataplane.NewGraphAdapter(cg), res), leak))
	if _, err := leaky.Lookup("outsider", "srv", policy.TCP, 80); err == nil {
		t.Fatal("setup: the TCP/80 probe should blackhole")
	}
	var leaks []Violation
	for _, v := range Audit(tp, cg, leaky, res, 0, nil) {
		if v.Kind == LeakyIsolation {
			leaks = append(leaks, v)
		}
	}
	want := "outsider->srv reachable without a policy on udp/53 (walk [0 1])"
	if len(leaks) != 1 || leaks[0].Detail != want {
		t.Fatalf("leaks = %v, want one: %s", leaks, want)
	}
}

func TestAuditDetectsOverCapacity(t *testing.T) {
	tp, cg, net, res := auditSetup(t)
	_ = net
	// Promise more bandwidth than the a->fw link carries.
	over := dataplane.NewNetwork(tp)
	boosted := *res
	boosted.Assignments = nil
	for _, asg := range res.Assignments {
		a2 := asg
		a2.BW = 10000
		boosted.Assignments = append(boosted.Assignments, a2)
	}
	install(t, over, dataplane.CompileRules(tp, dataplane.NewGraphAdapter(cg), &boosted))
	got := Audit(tp, cg, over, res, 0, nil)
	found := false
	for _, v := range got {
		if v.Kind == OverCapacity {
			found = true
		}
	}
	if !found {
		t.Errorf("10 Gbps promise on 100 Mbps links should flag over-capacity, got %v", got)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: Unreachable, Policy: 3, Detail: "x"}
	if v.String() != "unreachable (policy 3): x" {
		t.Errorf("String = %q", v.String())
	}
}

func pathOf(t *testing.T, tp *topo.Topology, names ...string) (p paths.Path) {
	t.Helper()
	for _, name := range names {
		for _, n := range tp.Nodes {
			if n.Name == name {
				p.Nodes = append(p.Nodes, n.ID)
			}
		}
	}
	return p
}
