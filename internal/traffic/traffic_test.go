package traffic

import (
	"math"
	"testing"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// congested builds a two-switch network with one 100 Mbps link, a reserved
// 60 Mbps policy flow and room for best-effort cross traffic.
func congested(t *testing.T) (*topo.Topology, *dataplane.Network) {
	t.Helper()
	tp := topo.NewTopology("congested")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	if err := tp.AddLink(a, b, 100); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		name, label string
		at          topo.NodeID
	}{
		{"p1", "Prio", a}, {"e1", "Bulk", a}, {"e2", "Bulk2", a}, {"srv", "Srv", b},
	} {
		if err := tp.AddEndpoint(ep.name, ep.at, ep.label); err != nil {
			t.Fatal(err)
		}
	}
	// One QoS policy with a 60 Mbps guarantee; two best-effort policies
	// with no bandwidth requirement.
	gp := policy.NewGraph("prio")
	gp.AddEdge(policy.Edge{Src: "Prio", Dst: "Srv", QoS: policy.QoS{BandwidthMbps: 60}})
	gb := policy.NewGraph("bulk")
	gb.AddEdge(policy.Edge{Src: "Bulk", Dst: "Srv"})
	gb2 := policy.NewGraph("bulk2")
	gb2.AddEdge(policy.Edge{Src: "Bulk2", Dst: "Srv"})
	cg, err := compose.New(nil).Compose(gp, gb, gb2)
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
	if res.SatisfiedCount() != 3 {
		t.Fatalf("want all 3 policies configured, got %d", res.SatisfiedCount())
	}
	n := dataplane.NewNetwork(tp)
	if err := n.ApplyPlan(n.PlanUpdate(dataplane.CompileRules(tp, dataplane.NewGraphAdapter(cg), res))); err != nil {
		t.Fatal(err)
	}
	return tp, n
}

func TestGuaranteeUnderCongestion(t *testing.T) {
	tp, n := congested(t)
	res, err := Simulate(tp, n, []Flow{
		{Src: "p1", Dst: "srv", Proto: policy.TCP, Port: 80, DemandMbps: 60},
		{Src: "e1", Dst: "srv", Proto: policy.TCP, Port: 80, DemandMbps: 100},
		{Src: "e2", Dst: "srv", Proto: policy.TCP, Port: 80, DemandMbps: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.GuaranteeViolations(); len(v) != 0 {
		t.Fatalf("guarantee violations under congestion: %+v", v)
	}
	byName := allocationsByName(res)
	prio := byName["p1"]
	if !prio.Delivered || prio.RateMbps < 60-1e-6 {
		t.Errorf("reserved flow rate = %v, want >= 60", prio.RateMbps)
	}
	// The two bulk flows split the leftover 40 Mbps max-min fairly.
	bulk1, bulk2 := byName["e1"], byName["e2"]
	if math.Abs(bulk1.RateMbps-bulk2.RateMbps) > 1e-6 {
		t.Errorf("bulk flows unequal: %v vs %v", bulk1.RateMbps, bulk2.RateMbps)
	}
	if math.Abs(bulk1.RateMbps-20) > 1e-6 {
		t.Errorf("bulk rate = %v, want 20 (half of the 40 Mbps leftover)", bulk1.RateMbps)
	}
	// Link fully used, not overloaded.
	if len(res.Links) == 0 {
		t.Fatal("no link loads reported")
	}
	for _, l := range res.Links {
		if l.Carried > l.Capacity+1e-6 {
			t.Errorf("link %d->%d overloaded: %v > %v", l.From, l.To, l.Carried, l.Capacity)
		}
	}
}

func TestUnderloadedFlowsGetDemand(t *testing.T) {
	tp, n := congested(t)
	res, err := Simulate(tp, n, []Flow{
		{Src: "p1", Dst: "srv", Proto: policy.TCP, Port: 80, DemandMbps: 10},
		{Src: "e1", Dst: "srv", Proto: policy.TCP, Port: 80, DemandMbps: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocations {
		if !a.Delivered {
			t.Fatalf("flow %s->%s blackholed", a.Flow.Src, a.Flow.Dst)
		}
		if math.Abs(a.RateMbps-a.Flow.DemandMbps) > 1e-6 {
			t.Errorf("underloaded flow %s rate %v != demand %v",
				a.Flow.Src, a.RateMbps, a.Flow.DemandMbps)
		}
	}
}

func TestBlackholedFlowReported(t *testing.T) {
	tp, n := congested(t)
	res, err := Simulate(tp, n, []Flow{
		{Src: "p1", Dst: "srv", Proto: policy.UDP, Port: 9999, DemandMbps: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The congested() policies carry match-all classifiers, so UDP is
	// actually admitted; use an unknown endpoint instead to force a
	// blackhole... the simplest deterministic blackhole is a flow between
	// endpoints with no policy: srv -> p1 (no reverse policy).
	res, err = Simulate(tp, n, []Flow{
		{Src: "srv", Dst: "p1", Proto: policy.TCP, Port: 80, DemandMbps: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocations[0].Delivered {
		t.Error("reverse flow without policy should blackhole")
	}
}

func TestInvalidDemand(t *testing.T) {
	tp, n := congested(t)
	if _, err := Simulate(tp, n, []Flow{{Src: "p1", Dst: "srv", DemandMbps: 0}}); err == nil {
		t.Error("zero demand should error")
	}
}

func TestGuaranteeViolationDetector(t *testing.T) {
	r := &Result{Allocations: []Allocation{
		{Flow: Flow{DemandMbps: 50}, ReservedMbps: 40, RateMbps: 30, Delivered: true}, // violated
		{Flow: Flow{DemandMbps: 50}, ReservedMbps: 40, RateMbps: 40, Delivered: true}, // ok
		{Flow: Flow{DemandMbps: 10}, ReservedMbps: 40, RateMbps: 10, Delivered: true}, // demand-bound ok
		{Flow: Flow{DemandMbps: 50}, ReservedMbps: 0, RateMbps: 1, Delivered: true},   // best-effort
	}}
	if got := len(r.GuaranteeViolations()); got != 1 {
		t.Errorf("violations = %d, want 1", got)
	}
}

func allocationsByName(res *Result) map[string]Allocation {
	out := map[string]Allocation{}
	for _, a := range res.Allocations {
		out[a.Flow.Src] = a
	}
	return out
}

// TestReservationFollowsForwardingRule installs two equal-priority ingress
// rules for one flow: a match-all rule with no queue and a tcp/80 rule with
// a 40 Mbps queue. A tcp/80 flow forwards on the more specific rule, so it
// must be granted that rule's queue, although "*" sorts first by Rule.Key.
func TestReservationFollowsForwardingRule(t *testing.T) {
	tp := topo.NewTopology("ingress")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	if err := tp.AddLink(a, b, 100); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		name string
		at   topo.NodeID
	}{{"cl", a}, {"srv", b}} {
		if err := tp.AddEndpoint(ep.name, ep.at, "L"); err != nil {
			t.Fatal(err)
		}
	}
	n := dataplane.NewNetwork(tp)
	web := policy.Classifier{Proto: policy.TCP, Ports: []int{80}}
	if err := n.ApplyPlan(n.PlanUpdate([]dataplane.Rule{
		{Switch: a, Src: "cl", Dst: "srv", NextHop: b, InPort: dataplane.HostPort, Priority: 1},
		{Switch: a, Src: "cl", Dst: "srv", Match: web, NextHop: b, InPort: dataplane.HostPort, QueueMbps: 40, Priority: 1},
	})); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tp, n, []Flow{
		{Src: "cl", Dst: "srv", Proto: policy.TCP, Port: 80, DemandMbps: 50},
		{Src: "cl", Dst: "srv", Proto: policy.UDP, Port: 53, DemandMbps: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{40, 0} {
		if a := res.Allocations[i]; !a.Delivered || a.ReservedMbps != want {
			t.Errorf("%s/%d: delivered %v, reserved %v Mbps, want %v", a.Flow.Proto, a.Flow.Port, a.Delivered, a.ReservedMbps, want)
		}
	}
}
