package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"janus/internal/compose"
	"janus/internal/policy"
	"janus/internal/topo"
	"janus/internal/workload"
)

// twoPeriodSetup builds a diamond network and two policies that partition
// the day: Day (8-20) and Night (20-8), each wanting 60 of the 100 Mbps
// direct link, so each period has slack for exactly one. With escalation,
// Day also has a stateful edge through an H-IDS behind mid, which its
// period reserves soft (Eqn 4).
func twoPeriodSetup(t *testing.T, escalation bool) (*topo.Topology, *compose.Graph) {
	t.Helper()
	tp := topo.NewTopology("2p")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	mid := tp.AddSwitch("mid")
	link := func(x, y topo.NodeID, c float64) {
		t.Helper()
		if err := tp.AddLink(x, y, c); err != nil {
			t.Fatal(err)
		}
	}
	link(a, b, 100)
	link(a, mid, 100)
	link(mid, b, 100)
	if escalation {
		hids := tp.AddNF("hids", policy.HeavyIDS)
		link(mid, hids, 100)
		link(hids, b, 100)
	}
	if err := tp.AddEndpoint("d1", a, "Day"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("n1", a, "Night"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "Srv"); err != nil {
		t.Fatal(err)
	}
	gd := policy.NewGraph("day")
	gd.AddEdge(policy.Edge{Src: "Day", Dst: "Srv", QoS: policy.QoS{BandwidthMbps: 60},
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 8, End: 20}}})
	if escalation {
		gd.AddEdge(policy.Edge{Src: "Day", Dst: "Srv", Chain: policy.Chain{policy.HeavyIDS},
			QoS: policy.QoS{BandwidthMbps: 20}, Cond: policy.Condition{Window: policy.TimeWindow{Start: 8, End: 20},
				Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})
	}
	gn := policy.NewGraph("night")
	gn.AddEdge(policy.Edge{Src: "Night", Dst: "Srv", QoS: policy.QoS{BandwidthMbps: 60},
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 20, End: 8}}})
	cg, err := compose.New(nil).Compose(gd, gn)
	if err != nil {
		t.Fatal(err)
	}
	return tp, cg
}

// TestConfigureTemporalJointMatchesGreedy holds the Eqn 9 joint solve to
// the greedy chain on instances where both are optimal: the same number of
// configured policies and, in each period, slack flags for the same
// policies, so a stateful edge's reservation shows in both.
func TestConfigureTemporalJointMatchesGreedy(t *testing.T) {
	for _, escalation := range []bool{false, true} {
		t.Run(fmt.Sprintf("escalation=%v", escalation), func(t *testing.T) {
			tp, cg := twoPeriodSetup(t, escalation)
			conf := mustNew(t, tp, cg, Config{TimeLimit: 30 * time.Second})
			greedy, err := conf.ConfigureTemporal()
			if err != nil {
				t.Fatal(err)
			}
			joint, err := conf.ConfigureTemporalJoint()
			if err != nil {
				t.Fatal(err)
			}
			if len(joint.Results) != len(greedy.Results) {
				t.Fatalf("joint has %d period results, greedy %d", len(joint.Results), len(greedy.Results))
			}
			// Each policy is active in exactly one of the two windows
			// (boundaries at 8 and 20 plus hour 0, which falls in the night
			// window), so the totals must agree.
			if joint.TotalConfigured != greedy.TotalConfigured {
				t.Errorf("joint configured %d, greedy %d", joint.TotalConfigured, greedy.TotalConfigured)
			}
			if joint.TotalConfigured == 0 {
				t.Error("joint configured nothing")
			}
			slackKeys := func(r *Result) []int {
				var pids []int
				for pid := range r.SlackUsed {
					pids = append(pids, pid)
				}
				slices.Sort(pids)
				return pids
			}
			reserved := 0
			for k, g := range greedy.Results {
				want, got := slackKeys(g), slackKeys(joint.Results[k])
				if !slices.Equal(got, want) {
					t.Errorf("period %dh: joint slack flags for policies %v, greedy %v", g.Period, got, want)
				}
				reserved += len(want)
			}
			if escalation && reserved == 0 {
				t.Error("the greedy chain reserved no stateful edge")
			}
		})
	}
}

// TestConfigureTemporalJointNoPathUnconfigured holds the joint model to the
// period model's rows: a hard pair with no candidate path pins its policy's
// I to zero in every period it is active, so a policy whose chain needs an
// NF the topology lacks is configured by neither the chain nor the joint
// solve.
func TestConfigureTemporalJointNoPathUnconfigured(t *testing.T) {
	tp := topo.NewTopology("nopath")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	if err := tp.AddLink(a, b, 100); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("d1", a, "Day"); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddEndpoint("srv", b, "Srv"); err != nil {
		t.Fatal(err)
	}
	g := policy.NewGraph("day")
	g.AddEdge(policy.Edge{Src: "Day", Dst: "Srv", Chain: policy.Chain{policy.Firewall},
		QoS: policy.QoS{BandwidthMbps: 10}, Cond: policy.Condition{Window: policy.TimeWindow{Start: 8, End: 20}}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	conf := mustNew(t, tp, cg, Config{})
	greedy, err := conf.ConfigureTemporal()
	if err != nil {
		t.Fatal(err)
	}
	joint, err := conf.ConfigureTemporalJoint()
	if err != nil {
		t.Fatal(err)
	}
	if greedy.TotalConfigured != 0 {
		t.Errorf("chain configured %d policies with no path", greedy.TotalConfigured)
	}
	if joint.TotalConfigured != 0 {
		t.Errorf("joint configured %d policies with no path", joint.TotalConfigured)
	}
	for _, res := range joint.Results {
		if len(res.Assignments) != 0 {
			t.Errorf("joint period %dh has assignments %v", res.Period, res.Assignments)
		}
	}
}

func TestConfigureTemporalJointEmptyGraph(t *testing.T) {
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
	conf := mustNew(t, tp, cg, Config{})
	tr, err := conf.ConfigureTemporalJoint()
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalConfigured != 0 {
		t.Errorf("empty graph configured %d", tr.TotalConfigured)
	}
}

func TestTemporalChainPeriodsMatchGraph(t *testing.T) {
	tp, cg := twoPeriodSetup(t, false)
	conf := mustNew(t, tp, cg, Config{})
	tr, err := conf.ConfigureTemporal()
	if err != nil {
		t.Fatal(err)
	}
	want := cg.Periods()
	if len(tr.Periods) != len(want) {
		t.Fatalf("periods %v, want %v", tr.Periods, want)
	}
	for i := range want {
		if tr.Periods[i] != want[i] {
			t.Fatalf("periods %v, want %v", tr.Periods, want)
		}
	}
	// Day policy configured only in the day period.
	day, _ := cg.Lookup("Day", "Srv")
	night, _ := cg.Lookup("Night", "Srv")
	for _, res := range tr.Results {
		isDay := res.Period >= 8 && res.Period < 20
		if got := res.Configured[day.ID]; got != isDay {
			t.Errorf("period %dh: day policy configured=%v, want %v", res.Period, got, isDay)
		}
		if got := res.Configured[night.ID]; got != !isDay {
			t.Errorf("period %dh: night policy configured=%v, want %v", res.Period, got, !isDay)
		}
	}
}

func TestNegotiateNilBaselineComputesOne(t *testing.T) {
	tp, cg := twoPeriodSetup(t, false)
	conf := mustNew(t, tp, cg, Config{})
	nego, err := conf.Negotiate(nil, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if nego.Baseline == nil || nego.Negotiated == nil {
		t.Fatal("negotiation should compute both chains")
	}
}

func TestBwOverrideFactor(t *testing.T) {
	var o bwOverride
	if o.factor(1, 2) != 1 {
		t.Error("nil override should be identity")
	}
	o = bwOverride{1: {2: 0.95}}
	if o.factor(1, 2) != 0.95 {
		t.Error("explicit factor not returned")
	}
	if o.factor(1, 3) != 1 || o.factor(9, 2) != 1 {
		t.Error("missing entries should be identity")
	}
}

func TestActiveEdgesClassification(t *testing.T) {
	g := policy.NewGraph("g")
	g.AddEdge(policy.Edge{Src: "A", Dst: "B", Default: true})
	g.AddEdge(policy.Edge{Src: "A", Dst: "B",
		Cond: policy.Condition{Stateful: policy.WhenAtLeast(policy.FailedConnections, 5)}})
	g.AddEdge(policy.Edge{Src: "A", Dst: "B",
		Cond: policy.Condition{Window: policy.TimeWindow{Start: 9, End: 18}}})
	cg, err := compose.New(nil).Compose(g)
	if err != nil {
		t.Fatal(err)
	}
	p := cg.Policies[0]
	hard, soft := activeEdges(p, 10)
	// At 10h: default (hard), stateful (soft), pure-temporal (hard).
	if len(hard) != 2 || len(soft) != 1 {
		t.Errorf("at 10h: hard=%v soft=%v, want 2 hard 1 soft", hard, soft)
	}
	hard, soft = activeEdges(p, 2)
	// At 2h the temporal edge is inactive.
	if len(hard) != 1 || len(soft) != 1 {
		t.Errorf("at 2h: hard=%v soft=%v, want 1 hard 1 soft", hard, soft)
	}
}

// TestJointCouplesSharedSlots holds the Eqn 9 coupling to the slot rule
// the chain's Eqns 7–8 use: at each period boundary, every column whose
// slot had the same path in the period before gets one α, with a hard slot
// being (policy, pair) and a soft one (policy, edge, pair). On this Fig 6
// workload every policy's hard edge changes at each boundary while its
// slots and chains stay, so a rule keyed by edge couples nothing; the slot
// rule couples 34 columns per boundary.
func TestJointCouplesSharedSlots(t *testing.T) {
	w, err := workload.Generate("Internode", workload.Spec{Policies: 6, EndpointsPerPolicy: 2, TimePeriods: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conf := mustNew(t, w.Topo, w.Graph, Config{CandidatePaths: 3, Seed: 1, Workers: 1})
	type column struct {
		pid, edge      int
		role           EdgeRole
		src, dst, path string
	}
	vars, want := 0, 0
	var before map[column]int
	for k, h := range w.Graph.Periods() {
		m, err := conf.buildModel(h, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		vars += m.prob.NumVariables()
		cols := map[column]int{}
		for _, pv := range m.pvars {
			c := column{pv.pid, pv.edgeIdx, pv.role, pv.src, pv.dst, pv.path.Key()}
			if pv.role == HardEdge {
				c.edge = -1
			}
			cols[c]++
		}
		if k > 0 {
			shared := 0
			for c, n := range cols {
				shared += n * before[c]
			}
			if shared == 0 {
				t.Fatalf("period %dh shares no (slot, path) with the period before", h)
			}
			want += shared
		}
		before = cols
	}
	joint, err := conf.ConfigureTemporalJoint()
	if err != nil {
		t.Fatal(err)
	}
	// The joint problem is the period models plus one α per coupling.
	if got := joint.Results[0].Stats.Variables - vars; got != want {
		t.Errorf("joint model couples %d columns across period boundaries, want %d", got, want)
	}
}

// TestJointDeterministic holds two joint solves of one configurator, at one
// solver worker, to identical results: the coupling rows must be built in
// an order that does not depend on map iteration. The instance has
// stateful edges, so soft slots couple too.
func TestJointDeterministic(t *testing.T) {
	w, err := workload.Generate("Ans", workload.Spec{Policies: 6, EndpointsPerPolicy: 2, TimePeriods: 2, StatefulEdges: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conf := mustNew(t, w.Topo, w.Graph, Config{CandidatePaths: 3, Seed: 3, Workers: 1})
	first, err := conf.ConfigureTemporalJoint()
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 3; run++ {
		again, err := conf.ConfigureTemporalJoint()
		if err != nil {
			t.Fatal(err)
		}
		if again.PathChanges != first.PathChanges || again.TotalConfigured != first.TotalConfigured {
			t.Errorf("run %d: %d path changes and %d configured, run 1: %d and %d",
				run, again.PathChanges, again.TotalConfigured, first.PathChanges, first.TotalConfigured)
		}
		for k, res := range again.Results {
			got, want := *res, *first.Results[k]
			got.Stats.Duration, want.Stats.Duration = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("run %d, period %dh: result differs from run 1 (%d nodes and %d assignments, run 1: %d and %d)",
					run, res.Period, got.Stats.Nodes, len(got.Assignments), want.Stats.Nodes, len(want.Assignments))
			}
		}
	}
}
