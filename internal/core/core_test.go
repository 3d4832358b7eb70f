package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"janus/internal/compose"
	"janus/internal/milp"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// fig2Setup reproduces the §2.1 example: two policies ("Mktg->Web via FW,
// 50 Mbps" and "IT->DB via FW, 50 Mbps") contending for the 50 Mbps
// bottleneck link s2->s3. Marketing has two endpoints (m1, m2), so group
// atomicity requires both marketing pairs or neither.
func fig2Setup(t *testing.T) (*topo.Topology, *compose.Graph) {
	t.Helper()
	tp := topo.NewTopology("fig2")
	s := make([]topo.NodeID, 7) // s[1..6]
	for i := 1; i <= 6; i++ {
		s[i] = tp.AddSwitch("")
	}
	fw1 := tp.AddNF("fw1", policy.Firewall) // on the s1-s2 segment
	fw2 := tp.AddNF("fw2", policy.Firewall) // on the s6-s4 segment
	link := func(a, b topo.NodeID, c float64) {
		t.Helper()
		if err := tp.AddLink(a, b, c); err != nil {
			t.Fatal(err)
		}
	}
	// Fig 2 wiring: s1-FW-s2, s2-s3 (50 Mbps bottleneck), s3-s5,
	// s1-s6, s6-FW-s4, s4-s3; 100 Mbps elsewhere.
	link(s[1], fw1, 100)
	link(fw1, s[2], 100)
	link(s[2], s[3], 50)
	link(s[3], s[5], 100)
	link(s[1], s[6], 100)
	link(s[6], fw2, 100)
	link(fw2, s[4], 100)
	link(s[4], s[3], 100)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tp.AddEndpoint("m1", s[1], "Mktg"))
	must(tp.AddEndpoint("m2", s[1], "Mktg"))
	must(tp.AddEndpoint("w1", s[3], "Web"))
	must(tp.AddEndpoint("it1", s[1], "IT"))
	must(tp.AddEndpoint("db1", s[5], "DB"))

	g1 := policy.NewGraph("mktg")
	g1.AddEdge(policy.Edge{Src: "Mktg", Dst: "Web",
		Chain: policy.Chain{policy.Firewall}, QoS: policy.QoS{BandwidthMbps: 50}})
	g2 := policy.NewGraph("it")
	g2.AddEdge(policy.Edge{Src: "IT", Dst: "DB",
		Chain: policy.Chain{policy.Firewall}, QoS: policy.QoS{BandwidthMbps: 50}})
	cg, err := compose.New(nil).Compose(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	return tp, cg
}

func mustNew(t *testing.T, tp *topo.Topology, g *compose.Graph, cfg Config) *Configurator {
	t.Helper()
	c, err := New(tp, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFig2Contention(t *testing.T) {
	tp, cg := fig2Setup(t)
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.Optimal && res.Status != milp.Feasible {
		t.Fatalf("status = %v", res.Status)
	}
	// Both policies need the FW; marketing needs 2×50 through chokepoints.
	// The optimum satisfies both policies: m1/m2 can split across the two
	// FW paths (s1-FW-s2-s3 carries one 50 Mbps pair; s1-s6-FW-s4-s3 the
	// other), and IT->DB rides whatever remains.
	sat := res.SatisfiedCount()
	if sat < 1 {
		t.Fatalf("satisfied %d policies, want at least 1", sat)
	}
	// Group atomicity: if the marketing policy is configured, BOTH pairs
	// must have paths.
	mktg, ok := cg.Lookup("Mktg", "Web")
	if !ok {
		t.Fatal("marketing policy missing from composed graph")
	}
	if res.Configured[mktg.ID] {
		if _, ok := hardAssignment(res, mktg.ID, "m1", "w1"); !ok {
			t.Error("marketing configured but m1->w1 has no path")
		}
		if _, ok := hardAssignment(res, mktg.ID, "m2", "w1"); !ok {
			t.Error("marketing configured but m2->w1 has no path")
		}
	}
	// Capacity must hold on every link.
	for _, l := range res.Links {
		if l.Reserved > l.Capacity+1e-6 {
			t.Errorf("link %d->%d over capacity: %g > %g", l.From, l.To, l.Reserved, l.Capacity)
		}
	}
	// Every configured path must traverse a firewall.
	for _, a := range res.Assignments {
		sawFW := false
		for _, n := range a.Path.Nodes {
			if tp.Nodes[n].Kind == topo.NFBox && tp.Nodes[n].NF == policy.Firewall {
				sawFW = true
			}
		}
		if !sawFW {
			t.Errorf("assignment %+v path %s skips the firewall", a.slot(), a.Path.Key())
		}
	}
}

func TestGroupAtomicityUnderScarcity(t *testing.T) {
	// Two marketing endpoints, but only one 50 Mbps path exists end to end:
	// the group cannot be half-satisfied, so the policy must be rejected
	// entirely while capacity remains unused (the all-or-nothing semantics
	// of §1/§2.1).
	tp := topo.NewTopology("scarce")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 50); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		name  string
		at    topo.NodeID
		label string
	}{{"m1", a, "Mktg"}, {"m2", a, "Mktg"}, {"w1", b, "Web"}} {
		if err := tp.AddEndpoint(ep.name, ep.at, ep.label); err != nil {
			t.Fatal(err)
		}
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "Mktg", Dst: "Web", QoS: policy.QoS{BandwidthMbps: 50}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedCount() != 0 {
		t.Errorf("satisfied %d, want 0 (cannot fit both pairs)", res.SatisfiedCount())
	}
	if len(res.Assignments) != 0 {
		t.Errorf("no partial assignments allowed, got %v", res.Assignments)
	}
}

func TestSinglePairFitsWhenGroupOfOne(t *testing.T) {
	// Same scarce topology but only one marketing endpoint: now it fits.
	tp := topo.NewTopology("fits")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 50); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("m1", a, "Mktg"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("w1", b, "Web"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "Mktg", Dst: "Web", QoS: policy.QoS{BandwidthMbps: 50}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedCount() != 1 {
		t.Errorf("satisfied %d, want 1", res.SatisfiedCount())
	}
}

func TestWeightsActAsPriorities(t *testing.T) {
	// §7.5: one 50 Mbps link, two competing single-pair policies; the
	// higher-weight policy must win.
	tp := topo.NewTopology("prio")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 50); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		name, label string
		at          topo.NodeID
	}{{"h1", "High", a}, {"l1", "Low", a}, {"srv", "Srv", b}} {
		if err := tp.AddEndpoint(ep.name, ep.at, ep.label); err != nil {
			t.Fatal(err)
		}
	}
	gh := policy.NewGraph("high")
	gh.Weight = 8
	gh.AddEdge(policy.Edge{Src: "High", Dst: "Srv", QoS: policy.QoS{BandwidthMbps: 50}})
	gl := policy.NewGraph("low")
	gl.Weight = 2
	gl.AddEdge(policy.Edge{Src: "Low", Dst: "Srv", QoS: policy.QoS{BandwidthMbps: 50}})
	cg, err := compose.New(nil).Compose(gh, gl)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	high, _ := cg.Lookup("High", "Srv")
	low, _ := cg.Lookup("Low", "Srv")
	if !res.Configured[high.ID] {
		t.Error("high-priority policy should be configured")
	}
	if res.Configured[low.ID] {
		t.Error("low-priority policy should be rejected under contention")
	}
}

func TestStatefulReservation(t *testing.T) {
	// A stateful policy with an escalation edge via H-IDS: with ample
	// capacity, both the default path and the escalation path must be
	// reserved (ξ = 0).
	tp := topo.NewTopology("stateful")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	mid := tp.AddSwitch("")
	hids := tp.AddNF("hids", policy.HeavyIDS)
	for _, l := range [][3]float64{} {
		_ = l
	}
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
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedCount() != 1 {
		t.Fatalf("satisfied %d, want 1", res.SatisfiedCount())
	}
	pid := cg.Policies[0].ID
	if res.SlackUsed[pid] {
		t.Error("with ample capacity the escalation path should be reserved (ξ=0)")
	}
	// There must be a SoftEdge assignment traversing the H-IDS.
	foundSoft := false
	for _, a2 := range res.Assignments {
		if a2.Role == SoftEdge {
			foundSoft = true
			sawIDS := false
			for _, n := range a2.Path.Nodes {
				if tp.Nodes[n].Kind == topo.NFBox && tp.Nodes[n].NF == policy.HeavyIDS {
					sawIDS = true
				}
			}
			if !sawIDS {
				t.Errorf("soft assignment path %s skips H-IDS", a2.Path.Key())
			}
		}
	}
	if !foundSoft {
		t.Error("no reserved escalation path found")
	}
}

func TestStatefulSlackUnderScarcity(t *testing.T) {
	// Default edge fits but the escalation edge cannot (its chain requires
	// an NF that does not exist): ξ must absorb the miss and the default
	// must still be configured (§5.3: hard default, soft non-default).
	tp := topo.NewTopology("slack")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 100); err != nil {
		t.Fatal(err)
	}
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
		Chain: policy.Chain{policy.DPI}, // no DPI box exists
		Cond:  policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	pid := cg.Policies[0].ID
	if !res.Configured[pid] {
		t.Error("default edge should still be configured")
	}
	if !res.SlackUsed[pid] {
		t.Error("escalation reservation is impossible; ξ should be 1")
	}
}

// TestCountersEscalateOnePair holds the model to a flow's counter state: a
// pair whose counters made the H-IDS escalation its active edge is served
// on it hard and reserves the default soft, while the other pair of the
// same policy keeps the default hard. If the escalation chain cannot be
// routed, the escalated pair's hard row is empty and the whole policy is
// unconfigured (Eqn 2), where without counters it is configured with its
// reservation given up.
func TestCountersEscalateOnePair(t *testing.T) {
	setup := func(withHIDS bool) (*Configurator, int) {
		tp := topo.NewTopology("escalate")
		a := tp.AddSwitch("")
		b := tp.AddSwitch("")
		mid := tp.AddSwitch("")
		link := func(x, y topo.NodeID) {
			t.Helper()
			if err := tp.AddLink(x, y, 1000); err != nil {
				t.Fatal(err)
			}
		}
		link(a, b)
		link(a, mid)
		link(mid, b)
		if withHIDS {
			hids := tp.AddNF("hids", policy.HeavyIDS)
			link(mid, hids)
			link(hids, b)
		}
		for _, ep := range []struct {
			name  string
			at    topo.NodeID
			label string
		}{{"c1", a, "Clients"}, {"c2", a, "Clients"}, {"srv", b, "Web"}} {
			if err := tp.AddEndpoint(ep.name, ep.at, ep.label); err != nil {
				t.Fatal(err)
			}
		}
		g := policy.NewGraph("g")
		g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web", Default: true,
			QoS: policy.QoS{BandwidthMbps: 10}})
		g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
			Chain: policy.Chain{policy.HeavyIDS},
			QoS:   policy.QoS{BandwidthMbps: 10},
			Cond:  policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})
		cg, err := compose.New(nil).Compose(g)
		if err != nil {
			t.Fatal(err)
		}
		return mustNew(t, tp, cg, Config{}), cg.Policies[0].ID
	}
	counters := Counters{FlowKey("c1", "srv"): {policy.FailedConnections: 5}}
	ctx := context.Background()

	c, pid := setup(true)
	res, err := c.ConfigureContext(ctx, 0, counters)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Configured[pid] || res.SlackUsed[pid] {
		t.Fatalf("configured %v, slack used %v; want configured with its reservation", res.Configured[pid], res.SlackUsed[pid])
	}
	roles := map[string]EdgeRole{}
	for _, a := range res.Assignments {
		roles[fmt.Sprintf("%s/%d", a.Src, a.EdgeIdx)] = a.Role
	}
	want := map[string]EdgeRole{"c1/1": HardEdge, "c1/0": SoftEdge, "c2/0": HardEdge, "c2/1": SoftEdge}
	if !reflect.DeepEqual(roles, want) {
		t.Errorf("roles by pair/edge = %v, want %v", roles, want)
	}

	c, pid = setup(false)
	res, err = c.ConfigureContext(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Configured[pid] || !res.SlackUsed[pid] {
		t.Fatalf("without counters: configured %v, slack used %v; want configured, reservation given up", res.Configured[pid], res.SlackUsed[pid])
	}
	res, err = c.ConfigureContext(ctx, 0, counters)
	if err != nil {
		t.Fatal(err)
	}
	if res.Configured[pid] || len(res.Assignments) != 0 {
		t.Errorf("escalated onto an unroutable chain: configured %v with %d assignments, want unconfigured with none",
			res.Configured[pid], len(res.Assignments))
	}
}

func TestTemporalPeriodsUseDifferentChains(t *testing.T) {
	// A policy via FW during 9-18 and via BC otherwise: the 9h config must
	// route through FW, the 18h config through BC.
	tp := topo.NewTopology("temporal")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
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
	link(a, b)
	if err := tp.AddEndpoint("c1", a, "Clients"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "Web"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Chain: policy.Chain{policy.Firewall},
		QoS:   policy.QoS{BandwidthMbps: 10},
		Cond:  policy.Condition{Window: policy.TimeWindow{Start: 9, End: 18}}})
	g.AddEdge(policy.Edge{Src: "Clients", Dst: "Web",
		Chain: policy.Chain{policy.ByteCounter},
		QoS:   policy.QoS{BandwidthMbps: 10},
		Cond:  policy.Condition{Window: policy.TimeWindow{Start: 18, End: 9}}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	tr, err := c.ConfigureTemporal()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Results) != len(cg.Periods()) {
		t.Fatalf("got %d period results, want %d", len(tr.Results), len(cg.Periods()))
	}
	chainAt := func(h int) policy.NFKind {
		t.Helper()
		for _, res := range tr.Results {
			if res.Period != h {
				continue
			}
			if len(res.Assignments) == 0 {
				t.Fatalf("no assignment at %dh", h)
			}
			for _, n := range res.Assignments[0].Path.Nodes {
				if tp.Nodes[n].Kind == topo.NFBox {
					return tp.Nodes[n].NF
				}
			}
		}
		t.Fatalf("no result for period %dh", h)
		return ""
	}
	if got := chainAt(9); got != policy.Firewall {
		t.Errorf("9h chain via %s, want FW", got)
	}
	if got := chainAt(18); got != policy.ByteCounter {
		t.Errorf("18h chain via %s, want BC", got)
	}
}

func TestReconfigureKeepsPathsWhenNothingChanged(t *testing.T) {
	tp, cg := fig2Setup(t)
	c := mustNew(t, tp, cg, Config{})
	first, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Reconfigure(first)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountPathChanges(first, second); got != 0 {
		t.Errorf("no environment change but %d path changes", got)
	}
	if first.SatisfiedCount() != second.SatisfiedCount() {
		t.Errorf("satisfied count drifted: %d -> %d", first.SatisfiedCount(), second.SatisfiedCount())
	}
}

func TestReconfigureAfterEndpointMove(t *testing.T) {
	tp, cg := fig2Setup(t)
	c := mustNew(t, tp, cg, Config{})
	first, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	// Move it1 from s1 to s6 (mobility) and re-solve.
	var s6 topo.NodeID
	for _, n := range tp.Nodes {
		if n.Kind == topo.Switch {
			s6 = n.ID // last switch by construction order is s6
		}
	}
	// find switch with name s5? names are auto; use EndpointByName anchor:
	// just move to db1's switch neighbor. Simpler: move onto w1's switch.
	w1, _ := tp.EndpointByName("w1")
	_ = s6
	if err := tp.MoveEndpoint("it1", w1.Attach); err != nil {
		t.Fatal(err)
	}
	second, err := c.Reconfigure(first)
	if err != nil {
		t.Fatal(err)
	}
	// The marketing policy's paths should be untouched: only IT moved.
	mktg, _ := cg.Lookup("Mktg", "Web")
	if first.Configured[mktg.ID] && second.Configured[mktg.ID] {
		a1, ok1 := hardAssignment(first, mktg.ID, "m1", "w1")
		a2, ok2 := hardAssignment(second, mktg.ID, "m1", "w1")
		if ok1 && ok2 && !a1.Path.Equal(a2.Path) {
			t.Error("marketing path changed although only IT endpoint moved")
		}
	}
}

func TestCountPathChanges(t *testing.T) {
	p1 := Assignment{Policy: 1, Src: "a", Dst: "b", Path: pathOf(1, 2)}
	p2 := Assignment{Policy: 2, Src: "c", Dst: "d", Path: pathOf(3, 4)}
	prev := &Result{Assignments: []Assignment{p1, p2}}
	// p1 unchanged, p2 rerouted.
	next := &Result{Assignments: []Assignment{p1, {Policy: 2, Src: "c", Dst: "d", Path: pathOf(3, 5, 4)}}}
	if got := CountPathChanges(prev, next); got != 1 {
		t.Errorf("changes = %d, want 1", got)
	}
	// Dropped assignment counts as a change.
	if got := CountPathChanges(prev, &Result{Assignments: []Assignment{p1}}); got != 1 {
		t.Errorf("drop changes = %d, want 1", got)
	}
	if got := CountPathChanges(nil, next); got != 0 {
		t.Errorf("nil prev changes = %d, want 0", got)
	}
}

func TestNegotiationShiftsBandwidth(t *testing.T) {
	// Two periods; period 0 is congested (two policies want the same
	// 60 Mbps link at 40 each), period 12 is idle. Negotiation should
	// shift bandwidth and configure more policies overall.
	tp := topo.NewTopology("nego")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 60); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		name, label string
		at          topo.NodeID
	}{{"x1", "X", a}, {"y1", "Y", a}, {"srv", "Srv", b}} {
		if err := tp.AddEndpoint(ep.name, ep.at, ep.label); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name, src string) *policy.Graph {
		g := policy.NewGraph(name)
		// Active all day: both periods.
		g.AddEdge(policy.Edge{Src: src, Dst: "Srv", QoS: policy.QoS{BandwidthMbps: 40}})
		// A second edge on another writer creates period boundary at 12.
		return g
	}
	gx := mk("gx", "X")
	gy := mk("gy", "Y")
	// Add a trivially-satisfiable temporal policy to create two periods.
	gt := policy.NewGraph("gt")
	gt.AddEdge(policy.Edge{Src: "X", Dst: "Srv", Match: policy.Classifier{Proto: policy.UDP},
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 12, End: 0}}})
	cg, err := compose.New(nil).Compose(gx, gy, gt)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	baseline, err := c.ConfigureTemporal()
	if err != nil {
		t.Fatal(err)
	}
	// At each period only one of X/Y fits at 40+40 > 60.
	nego, err := c.Negotiate(baseline, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if nego.ExtraConfigured < 0 {
		t.Errorf("negotiation lost policies: %d", nego.ExtraConfigured)
	}
	if nego.Baseline.TotalConfigured != baseline.TotalConfigured {
		t.Error("baseline mutated by negotiation")
	}
	// Invalid parameters.
	if _, err := c.Negotiate(baseline, 0, 5); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := c.Negotiate(baseline, 50, 200); err == nil {
		t.Error("N=200 should error")
	}
}

func TestJitterQueueCap(t *testing.T) {
	// Three policies with jitter label "low" (queue 0) all crossing one
	// switch; cap 2 per level → at most 2 configured.
	tp := topo.NewTopology("jitter")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if err := tp.AddLink(a, b, 10000); err != nil {
		t.Fatal(err)
	}
	var graphs []*policy.Graph
	for i, src := range []string{"A", "B", "C"} {
		name := src + "ep"
		if err := tp.AddEndpoint(name, a, src); err != nil {
			t.Fatal(err)
		}
		g := policy.NewGraph(src)
		g.AddEdge(policy.Edge{Src: src, Dst: "Srv",
			QoS: policy.QoS{BandwidthMbps: 1, Jitter: "low"}})
		graphs = append(graphs, g)
		_ = i
	}
	if err := tp.AddEndpoint("srv", b, "Srv"); err != nil {
		t.Fatal(err)
	}
	cg, err := compose.New(nil).Compose(graphs...)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{JitterQueueCap: 2})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SatisfiedCount(); got != 2 {
		t.Errorf("satisfied %d, want 2 (queue cap)", got)
	}
	// Without the cap all three fit.
	c2 := mustNew(t, tp, cg, Config{})
	res2, err := c2.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.SatisfiedCount(); got != 3 {
		t.Errorf("without cap satisfied %d, want 3", got)
	}
}

func TestLatencyHopBudget(t *testing.T) {
	// Strict latency (4 hops) must exclude a long path: build a topology
	// where the only path is 6 hops; the policy cannot be configured.
	tp := topo.NewTopology("lat")
	nodes := make([]topo.NodeID, 7)
	for i := range nodes {
		nodes[i] = tp.AddSwitch("")
	}
	for i := 0; i+1 < len(nodes); i++ {
		if err := tp.AddLink(nodes[i], nodes[i+1], 1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddEndpoint("c1", nodes[0], "C"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", nodes[6], "S"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "C", Dst: "S",
		QoS: policy.QoS{BandwidthMbps: 1, Latency: "strict"}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, tp, cg, Config{})
	res, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedCount() != 0 {
		t.Error("6-hop-only path should violate the strict (4-hop) budget")
	}
	// Relaxed latency admits it.
	g2 := policy.NewGraph("g")
	g2.AddEdge(policy.Edge{Src: "C", Dst: "S",
		QoS: policy.QoS{BandwidthMbps: 1, Latency: "relaxed"}})
	cg2, err := compose.New(nil).Compose(g2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustNew(t, tp, cg2, Config{})
	res2, err := c2.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SatisfiedCount() != 1 {
		t.Error("relaxed latency should admit the 6-hop path")
	}
}

func TestCandidateSubsetStillSolves(t *testing.T) {
	tp, cg := fig2Setup(t)
	full := mustNew(t, tp, cg, Config{CandidatePaths: 0})
	sub := mustNew(t, tp, cg, Config{CandidatePaths: 1, Seed: 3})
	fres, err := full.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sub.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if sres.SatisfiedCount() > fres.SatisfiedCount() {
		t.Errorf("subset (%d) cannot beat full ILP (%d)",
			sres.SatisfiedCount(), fres.SatisfiedCount())
	}
	if sres.Stats.Variables >= fres.Stats.Variables {
		t.Errorf("subset model should be smaller: %d vs %d vars",
			sres.Stats.Variables, fres.Stats.Variables)
	}
}

func TestInvalidTopologyRejected(t *testing.T) {
	tp := topo.NewTopology("bad")
	tp.AddSwitch("")
	// A link referencing a node that does not exist is structurally
	// invalid and must be rejected.
	tp.Links = append(tp.Links, topo.Link{From: 0, To: 99, Capacity: 10})
	cg, err := compose.New(nil).Compose()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tp, cg, Config{}); err == nil {
		t.Error("structurally invalid topology should be rejected")
	}

	// A merely disconnected topology is accepted: quarantine legitimately
	// disconnects switches, and a restored runtime must be constructible
	// from such a topology. Connectivity is enforced at input boundaries
	// (topo.Validate in server.New and the CLIs), and flows that lost all
	// paths surface as solver degradation, not a constructor error.
	disc := topo.NewTopology("disc")
	disc.AddSwitch("")
	disc.AddSwitch("")
	if _, err := New(disc, cg, Config{}); err != nil {
		t.Errorf("disconnected topology should be accepted by New, got %v", err)
	}
}

func TestReconfigureRequiresPrev(t *testing.T) {
	tp, cg := fig2Setup(t)
	c := mustNew(t, tp, cg, Config{})
	if _, err := c.Reconfigure(nil); err == nil {
		t.Error("Reconfigure(nil) should error")
	}
}

func pathOf(ids ...int) (p paths.Path) {
	for _, id := range ids {
		p.Nodes = append(p.Nodes, topo.NodeID(id))
	}
	return p
}

// hardAssignment returns the hard-edge path r configures for a (policy,
// pair), or ok=false.
func hardAssignment(r *Result, pid int, src, dst string) (Assignment, bool) {
	for _, a := range r.Assignments {
		if a.Policy == pid && a.Src == src && a.Dst == dst && a.Role == HardEdge {
			return a, true
		}
	}
	return Assignment{}, false
}
