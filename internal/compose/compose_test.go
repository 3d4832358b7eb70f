package compose

import (
	"slices"
	"testing"

	"janus/internal/policy"
)

// fig3 builds the input graphs of Fig 3: a QoS policy Mktg->Web via L-IDS,
// an IT->DB policy with high min b/w, and a Nml group-wide policy.
func fig3Inputs() []*policy.Graph {
	p1 := policy.NewGraph("policy1")
	p1.AddEPG(policy.NewEPG("Mktg", "Nml", "Mktg"))
	p1.AddEPG(policy.NewEPG("Web", "Nml", "Web"))
	p1.AddEdge(policy.Edge{Src: "Mktg", Dst: "Web", Chain: policy.Chain{policy.LightIDS}})

	p2 := policy.NewGraph("policy2")
	p2.AddEPG(policy.NewEPG("IT", "Nml", "IT"))
	p2.AddEPG(policy.NewEPG("DB", "Nml", "DB"))
	p2.AddEdge(policy.Edge{Src: "IT", Dst: "DB", QoS: policy.QoS{MinBandwidth: "high"}})
	return []*policy.Graph{p1, p2}
}

func TestComposeDistinctPairsKeepPolicies(t *testing.T) {
	g, err := New(nil).Compose(fig3Inputs()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 2 {
		t.Fatalf("got %d policies, want 2", len(g.Policies))
	}
	if len(g.Conflicts) != 0 {
		t.Errorf("unexpected conflicts: %v", g.Conflicts)
	}
	p, ok := g.Lookup("Mktg&Nml", "Nml&Web")
	if !ok {
		t.Fatal("Mktg&Nml -> Nml&Web policy missing")
	}
	if !p.Default.Chain.Equal(policy.Chain{policy.LightIDS}) {
		t.Errorf("chain = %v, want L-IDS", p.Default.Chain)
	}
}

func TestComposeSameMetricPicksBetterLabel(t *testing.T) {
	// Fig 8a: min b/w medium ∘ min b/w low = medium, chain FW then LB.
	a := policy.NewGraph("writerA")
	a.AddEdge(policy.Edge{Src: "SkypeClient", Dst: "Server",
		Chain: policy.Chain{policy.Firewall}, QoS: policy.QoS{MinBandwidth: "medium"}})
	b := policy.NewGraph("writerB")
	b.AddEdge(policy.Edge{Src: "SkypeClient", Dst: "Server",
		Chain: policy.Chain{policy.LoadBalance}, QoS: policy.QoS{MinBandwidth: "low"}})

	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 1 {
		t.Fatalf("got %d policies, want 1", len(g.Policies))
	}
	p := g.Policies[0]
	if p.Default.QoS.MinBandwidth != "medium" {
		t.Errorf("composed min b/w = %s, want medium", p.Default.QoS.MinBandwidth)
	}
	want := policy.Chain{policy.Firewall, policy.LoadBalance}
	if !p.Default.Chain.Equal(want) {
		t.Errorf("composed chain = %v, want %v", p.Default.Chain, want)
	}
	if len(p.Writers) != 2 {
		t.Errorf("writers = %v, want both", p.Writers)
	}
}

func TestComposeDifferentMetricsCoexist(t *testing.T) {
	// Fig 8b: min b/w medium ∘ max b/w low -> conflict when min exceeds max,
	// coexist when compatible.
	a := policy.NewGraph("a")
	a.AddEdge(policy.Edge{Src: "C", Dst: "S", QoS: policy.QoS{MinBandwidth: "medium"}})
	b := policy.NewGraph("b")
	b.AddEdge(policy.Edge{Src: "C", Dst: "S", QoS: policy.QoS{MaxBandwidth: "medium"}})
	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 1 {
		t.Fatalf("compatible min/max should compose, got %d policies (conflicts %v)", len(g.Policies), g.Conflicts)
	}
	q := g.Policies[0].Default.QoS
	if q.MinBandwidth != "medium" || q.MaxBandwidth != "medium" {
		t.Errorf("composed QoS = %v", q)
	}
}

func TestComposeBandwidthConflictDropsEdge(t *testing.T) {
	// §2.1: min 100 Mbps guarantee vs max 50 Mbps cap is a conflict.
	a := policy.NewGraph("a")
	a.AddEdge(policy.Edge{Src: "C", Dst: "S", QoS: policy.QoS{MinBandwidth: "high"}})
	b := policy.NewGraph("b")
	b.AddEdge(policy.Edge{Src: "C", Dst: "S", QoS: policy.QoS{MaxBandwidth: "low"}})
	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 0 {
		t.Errorf("conflicting min/max should drop the policy, got %d", len(g.Policies))
	}
	if len(g.Conflicts) != 1 || g.Conflicts[0].Kind != BandwidthConflict {
		t.Errorf("conflicts = %v, want one bandwidth-conflict", g.Conflicts)
	}
}

func TestComposeStatefulFig10a(t *testing.T) {
	// Fig 10a: writer A escalates to H-IDS at >4 failed connections; writer
	// B escalates to DPI at >8. Composed: normal edge, [5,9) edge via H-IDS,
	// >=9 edge via H-IDS->DPI; >8 ∧ <4 pruned as unsatisfiable... the
	// composed graph has 3 satisfiable states plus residuals.
	a := policy.NewGraph("a")
	a.AddEdge(policy.Edge{Src: "client", Dst: "Web", Chain: policy.Chain{policy.LightIDS}, Default: true})
	a.AddEdge(policy.Edge{Src: "client", Dst: "Web", Chain: policy.Chain{policy.LightIDS, policy.HeavyIDS},
		Cond: policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})

	b := policy.NewGraph("b")
	b.AddEdge(policy.Edge{Src: "client", Dst: "Web", Chain: policy.Chain{policy.LightIDS}, Default: true})
	b.AddEdge(policy.Edge{Src: "client", Dst: "Web", Chain: policy.Chain{policy.LightIDS, policy.DPI},
		Cond: policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 9)}})

	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 1 {
		t.Fatalf("got %d policies, want 1", len(g.Policies))
	}
	p := g.Policies[0]
	if !p.Default.Cond.ActiveAt(12, nil) {
		t.Errorf("default edge should carry normal traffic (0 failures), got %v", p.Default)
	}
	if !p.Default.Chain.Equal(policy.Chain{policy.LightIDS}) {
		t.Errorf("default chain = %v, want plain L-IDS", p.Default.Chain)
	}
	// At 6 failed connections the active edge must include H-IDS but not DPI.
	e, _, ok := ActiveEdge(p, 12, map[policy.Event]int{policy.FailedConnections: 6})
	if !ok {
		t.Fatal("no active edge at 6 failures")
	}
	if !containsNF(e.Chain, policy.HeavyIDS) || containsNF(e.Chain, policy.DPI) {
		t.Errorf("chain at 6 failures = %v, want H-IDS without DPI", e.Chain)
	}
	// At 10 failures the chain must include both H-IDS and DPI.
	e, _, ok = ActiveEdge(p, 12, map[policy.Event]int{policy.FailedConnections: 10})
	if !ok {
		t.Fatal("no active edge at 10 failures")
	}
	if !containsNF(e.Chain, policy.HeavyIDS) || !containsNF(e.Chain, policy.DPI) {
		t.Errorf("chain at 10 failures = %v, want H-IDS and DPI", e.Chain)
	}
	// At 0 failures normal traffic goes through L-IDS only.
	e, _, ok = ActiveEdge(p, 12, nil)
	if !ok {
		t.Fatal("no active edge for normal traffic")
	}
	if containsNF(e.Chain, policy.HeavyIDS) || containsNF(e.Chain, policy.DPI) {
		t.Errorf("normal chain = %v, want plain L-IDS", e.Chain)
	}
}

func TestComposeTemporalFig10b(t *testing.T) {
	// Fig 10b: FW during 9-18 ∘ LB during 12-20 => FW->LB during 12-18,
	// with residual FW 9-12 and LB 18-20 edges.
	a := policy.NewGraph("a")
	a.AddEdge(policy.Edge{Src: "client", Dst: "Web", Chain: policy.Chain{policy.Firewall},
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 9, End: 18}}})
	b := policy.NewGraph("b")
	b.AddEdge(policy.Edge{Src: "client", Dst: "Web", Chain: policy.Chain{policy.LoadBalance},
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 12, End: 20}}})

	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 1 {
		t.Fatalf("got %d policies, want 1", len(g.Policies))
	}
	p := g.Policies[0]
	// At 13h the composed FW->LB edge must be active.
	e, _, ok := ActiveEdge(p, 13, nil)
	if !ok {
		t.Fatal("no active edge at 13h")
	}
	if !e.Chain.Equal(policy.Chain{policy.Firewall, policy.LoadBalance}) {
		t.Errorf("chain at 13h = %v, want FW->LB", e.Chain)
	}
	// At 10h only the FW residual applies.
	e, _, ok = ActiveEdge(p, 10, nil)
	if !ok {
		t.Fatal("no active edge at 10h")
	}
	if !e.Chain.Equal(policy.Chain{policy.Firewall}) {
		t.Errorf("chain at 10h = %v, want FW", e.Chain)
	}
	// At 19h only the LB residual applies.
	e, _, ok = ActiveEdge(p, 19, nil)
	if !ok {
		t.Fatal("no active edge at 19h")
	}
	if !e.Chain.Equal(policy.Chain{policy.LoadBalance}) {
		t.Errorf("chain at 19h = %v, want LB", e.Chain)
	}
	// At 22h nothing is allowed.
	if _, _, ok := ActiveEdge(p, 22, nil); ok {
		t.Error("no edge should be active at 22h")
	}
}

func TestComposeClassifierConflict(t *testing.T) {
	a := policy.NewGraph("a")
	a.AddEdge(policy.Edge{Src: "C", Dst: "S", Match: policy.Classifier{Proto: policy.TCP}})
	b := policy.NewGraph("b")
	b.AddEdge(policy.Edge{Src: "C", Dst: "S", Match: policy.Classifier{Proto: policy.UDP}})
	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 0 {
		t.Errorf("tcp ∩ udp should drop the composed edge")
	}
	if len(g.Conflicts) != 1 || g.Conflicts[0].Kind != EmptyClassifier {
		t.Errorf("conflicts = %v", g.Conflicts)
	}
}

func TestComposeInvalidInput(t *testing.T) {
	bad := policy.NewGraph("")
	if _, err := New(nil).Compose(bad); err == nil {
		t.Error("invalid input graph should fail Compose")
	}
}

func TestComposedPeriods(t *testing.T) {
	build := func(edges ...policy.Edge) *Graph {
		t.Helper()
		g := policy.NewGraph("g")
		for _, e := range edges {
			g.AddEdge(e)
		}
		cg, err := New(nil).Compose(g)
		if err != nil {
			t.Fatal(err)
		}
		return cg
	}
	window := func(chain policy.Chain, start, end int) policy.Edge {
		return policy.Edge{Src: "C", Dst: "S", Chain: chain,
			Cond: policy.Condition{Window: policy.TimeWindow{Start: start, End: end}}}
	}
	cases := []struct {
		name   string
		g      *Graph
		want   []int
		hourAt map[int]int // hour -> PeriodAt
	}{
		{"day/night", build(window(nil, 9, 18), window(nil, 18, 9)),
			[]int{0, 9, 18}, map[int]int{0: 0, 8: 0, 9: 9, 17: 9, 18: 18, 23: 18}},
		// Fig 6 policy 1: FW at 1-9, L-IDS 9-14, BC 14-1 (wraps).
		{"fig6", build(window(policy.Chain{policy.Firewall}, 1, 9),
			window(policy.Chain{policy.LightIDS}, 9, 14), window(policy.Chain{policy.ByteCounter}, 14, 1)),
			[]int{0, 1, 9, 14}, map[int]int{0: 0, 1: 1, 13: 9, 14: 14, 23: 14}},
		{"static", build(policy.Edge{Src: "C", Dst: "S"}),
			[]int{0}, map[int]int{0: 0, 12: 0, 23: 0}},
	}
	for _, tc := range cases {
		if got := tc.g.Periods(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Periods = %v, want %v", tc.name, got, tc.want)
		}
		for h, want := range tc.hourAt {
			if got := tc.g.PeriodAt(h); got != want {
				t.Errorf("%s: PeriodAt(%d) = %d, want %d", tc.name, h, got, want)
			}
		}
	}
}

func TestIntersectWindows(t *testing.T) {
	cases := []struct {
		a, b    policy.TimeWindow
		want    policy.TimeWindow
		wantsOK bool
	}{
		{policy.TimeWindow{Start: 9, End: 18}, policy.TimeWindow{Start: 12, End: 20}, policy.TimeWindow{Start: 12, End: 18}, true},
		{policy.TimeWindow{Start: 1, End: 5}, policy.TimeWindow{Start: 6, End: 9}, policy.TimeWindow{}, false},
		{policy.AllDay(), policy.TimeWindow{Start: 3, End: 7}, policy.TimeWindow{Start: 3, End: 7}, true},
		{policy.TimeWindow{Start: 22, End: 3}, policy.TimeWindow{Start: 2, End: 6}, policy.TimeWindow{Start: 2, End: 3}, true},
		{policy.TimeWindow{Start: 22, End: 6}, policy.TimeWindow{Start: 23, End: 2}, policy.TimeWindow{Start: 23, End: 2}, true},
	}
	for _, tc := range cases {
		got, ok := intersectWindows(tc.a, tc.b)
		if ok != tc.wantsOK {
			t.Errorf("intersect(%v,%v) ok = %v, want %v", tc.a, tc.b, ok, tc.wantsOK)
			continue
		}
		if ok && got != tc.want {
			t.Errorf("intersect(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPolicyWeightTakesMaxOfWriters(t *testing.T) {
	a := policy.NewGraph("a")
	a.Weight = 2
	a.AddEdge(policy.Edge{Src: "C", Dst: "S"})
	b := policy.NewGraph("b")
	b.Weight = 8
	b.AddEdge(policy.Edge{Src: "C", Dst: "S"})
	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 1 || g.Policies[0].Weight != 8 {
		t.Errorf("composed weight = %v, want 8", g.Policies)
	}
}

func containsNF(ch policy.Chain, k policy.NFKind) bool {
	for _, n := range ch {
		if n == k {
			return true
		}
	}
	return false
}

func TestComposeDisjointWindowsConflict(t *testing.T) {
	// Two writers constrain the same pair to non-overlapping windows: the
	// composed edge is dropped (no time at which both allow traffic), and
	// the residual per-writer edges remain.
	a := policy.NewGraph("a")
	a.AddEdge(policy.Edge{Src: "C", Dst: "S",
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 1, End: 5}}})
	b := policy.NewGraph("b")
	b.AddEdge(policy.Edge{Src: "C", Dst: "S",
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 6, End: 9}}})
	g, err := New(nil).Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range g.Conflicts {
		if c.Kind == DisjointWindows {
			found = true
		}
	}
	if !found {
		t.Errorf("disjoint windows should record a conflict, got %v", g.Conflicts)
	}
	// Residuals: at 2h writer a's edge applies, at 7h writer b's.
	if len(g.Policies) != 1 {
		t.Fatalf("policies = %d, want 1 (residual edges)", len(g.Policies))
	}
	p := g.Policies[0]
	if _, _, ok := ActiveEdge(p, 2, nil); !ok {
		t.Error("writer a's residual should be active at 2h")
	}
	if _, _, ok := ActiveEdge(p, 7, nil); !ok {
		t.Error("writer b's residual should be active at 7h")
	}
	if _, _, ok := ActiveEdge(p, 12, nil); ok {
		t.Error("no edge should be active at 12h")
	}
}

func TestComposeThreeWriters(t *testing.T) {
	// Pairwise composition must fold across three writers: the chain
	// accumulates and the strongest QoS wins.
	mk := func(name string, nf policy.NFKind, bw float64) *policy.Graph {
		g := policy.NewGraph(name)
		g.AddEdge(policy.Edge{Src: "C", Dst: "S",
			Chain: policy.Chain{nf}, QoS: policy.QoS{BandwidthMbps: bw}})
		return g
	}
	g, err := New(nil).Compose(
		mk("w1", policy.Firewall, 10),
		mk("w2", policy.LoadBalance, 30),
		mk("w3", policy.ByteCounter, 20),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 1 {
		t.Fatalf("policies = %d, want 1", len(g.Policies))
	}
	p := g.Policies[0]
	want := policy.Chain{policy.Firewall, policy.LoadBalance, policy.ByteCounter}
	if !p.Default.Chain.Equal(want) {
		t.Errorf("chain = %v, want %v", p.Default.Chain, want)
	}
	if p.Default.QoS.BandwidthMbps != 30 {
		t.Errorf("bw = %v, want 30 (max across writers)", p.Default.QoS.BandwidthMbps)
	}
	if len(p.Writers) != 3 {
		t.Errorf("writers = %v", p.Writers)
	}
}
