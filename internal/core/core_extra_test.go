package core

import (
	"testing"
	"time"

	"janus/internal/compose"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
	"janus/internal/workload"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scheme == nil || c.Lambda != 0.2 || c.Rho != 0.2 {
		t.Errorf("defaults: %+v", c)
	}
	if c.RelGap != 0.02 || c.MaxNodes != 10000 || c.StallNodes != 60 {
		t.Errorf("solver defaults: %+v", c)
	}
	if c.TimeLimit != 30*time.Second {
		t.Errorf("time limit default: %v", c.TimeLimit)
	}
	// Negative sentinels disable limits.
	c2 := Config{TimeLimit: -1, StallNodes: -1}.withDefaults()
	if c2.TimeLimit != 0 || c2.StallNodes != 0 {
		t.Errorf("negative sentinels: %+v", c2)
	}
}

func TestShortestFirstSelection(t *testing.T) {
	tp, cg := fig2Setup(t)
	c := mustNew(t, tp, cg, Config{CandidatePaths: 1, ShortestFirst: true})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	// With k=1 shortest-first, every assignment must ride a shortest valid
	// path for its slot.
	e := paths.NewEnumerator(tp)
	for _, a := range res.Assignments {
		p := cg.PolicyByID(a.Policy)
		edge := p.AllEdges()[a.EdgeIdx]
		srcEP, _ := tp.EndpointByName(a.Src)
		dstEP, _ := tp.EndpointByName(a.Dst)
		all, err := e.Valid(srcEP.Attach, dstEP.Attach, edge.Chain)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) > 0 && a.Path.Hops() != all[0].Hops() {
			t.Errorf("assignment %s hops %d, shortest is %d", a.Key(), a.Path.Hops(), all[0].Hops())
		}
	}
}

func TestBottlenecksSorted(t *testing.T) {
	r := &Result{Links: []LinkUse{
		{From: 1, To: 2, ShadowPrice: 0.1},
		{From: 3, To: 4, ShadowPrice: 0},
		{From: 5, To: 6, ShadowPrice: 0.9},
	}}
	bn := r.Bottlenecks()
	if len(bn) != 2 {
		t.Fatalf("bottlenecks = %d, want 2 (zero price excluded)", len(bn))
	}
	if bn[0].ShadowPrice < bn[1].ShadowPrice {
		t.Error("bottlenecks not sorted descending")
	}
}

func TestAssignmentKey(t *testing.T) {
	a := Assignment{Policy: 3, EdgeIdx: 1, Role: HardEdge, Src: "x", Dst: "y"}
	b := Assignment{Policy: 3, EdgeIdx: 1, Role: HardEdge, Src: "x", Dst: "y",
		Path: paths.Path{Nodes: []topo.NodeID{1, 2}}}
	if a.Key() != b.Key() {
		t.Error("Key must identify the slot, not the chosen path")
	}
	// Hard slots are keyed per pair regardless of which temporal edge is
	// active (Fig 6: the 9-18h and 18-9h edges are the same slot).
	c := Assignment{Policy: 3, EdgeIdx: 2, Role: HardEdge, Src: "x", Dst: "y"}
	if a.Key() != c.Key() {
		t.Error("hard keys must not depend on the edge index")
	}
	// Soft slots keep the edge index: one pair can hold several
	// reservations.
	s1 := Assignment{Policy: 3, EdgeIdx: 1, Role: SoftEdge, Src: "x", Dst: "y"}
	s2 := Assignment{Policy: 3, EdgeIdx: 2, Role: SoftEdge, Src: "x", Dst: "y"}
	if s1.Key() == s2.Key() {
		t.Error("soft keys must include the edge index")
	}
	if a.Key() == s1.Key() {
		t.Error("hard and soft slots must not collide")
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{
		Configured: map[int]bool{0: true, 1: false, 2: true},
		Assignments: []Assignment{
			{Policy: 0, Role: HardEdge, Src: "a", Dst: "b"},
			{Policy: 0, Role: SoftEdge, Src: "a", Dst: "b"},
		},
	}
	if r.SatisfiedCount() != 2 {
		t.Errorf("SatisfiedCount = %d, want 2", r.SatisfiedCount())
	}
	if _, ok := r.AssignmentFor(0, "a", "b"); !ok {
		t.Error("AssignmentFor should find the hard assignment")
	}
	if got, _ := r.AssignmentFor(0, "a", "b"); got.Role != HardEdge {
		t.Error("AssignmentFor must prefer the hard edge")
	}
	if _, ok := r.AssignmentFor(9, "a", "b"); ok {
		t.Error("AssignmentFor on missing policy should fail")
	}
}

func TestMaxPathsPerPairCapsModel(t *testing.T) {
	w, err := workload.Generate("Ans", workload.Spec{Policies: 5, EndpointsPerPolicy: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	big := mustNew(t, w.Topo, w.Graph, Config{CandidatePaths: 0, Seed: 3})
	resBig, err := big.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh workload (topology was mutated by NF placement once; reuse it
	// with a fresh configurator and a tight cap).
	capped := mustNew(t, w.Topo, w.Graph, Config{CandidatePaths: 0, MaxPathsPerPair: 3, Seed: 3})
	resCap, err := capped.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if resCap.Stats.Variables >= resBig.Stats.Variables {
		t.Errorf("capped model (%d vars) should be smaller than full (%d)",
			resCap.Stats.Variables, resBig.Stats.Variables)
	}
}

func TestConfigureEmptyComposedGraph(t *testing.T) {
	tp := topo.NewTopology("e")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 10); err != nil {
		t.Fatal(err)
	}
	cg, err := compose.New(nil).Compose()
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Configured) != 0 || len(res.Assignments) != 0 {
		t.Errorf("empty graph produced %v", res)
	}
}

func TestPolicyWithUnknownQoSLabelErrors(t *testing.T) {
	tp := topo.NewTopology("bad")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 10); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("x", a, "X"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("y", b, "Y"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "X", Dst: "Y", QoS: policy.QoS{MinBandwidth: "turbo"}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	if _, err := c.Configure(0); err == nil {
		t.Error("unknown QoS label should surface as an error")
	}
}
