package dataplane_test

import (
	"context"
	"sync"
	"testing"

	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/topo"
	"janus/internal/workload"
)

// fig11Ans is the fig11 Ans instance (50 policies, two sources and one
// destination each) installed by a runtime, plus the rule sets before and
// after one delta event: the first source endpoint moved to another switch.
type fig11Ans struct {
	tp            *topo.Topology
	net           *dataplane.Network
	before, after []dataplane.Rule
}

var (
	fig11Once sync.Once
	fig11     fig11Ans
	fig11Err  error
)

func loadFig11Ans(tb testing.TB) fig11Ans {
	tb.Helper()
	fig11Once.Do(func() {
		w, err := workload.Generate("Ans", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, Seed: 1})
		if err != nil {
			fig11Err = err
			return
		}
		conf, err := core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 5, Seed: 1, Workers: 1})
		if err != nil {
			fig11Err = err
			return
		}
		rt, err := runtime.New(context.Background(), conf)
		if err != nil {
			fig11Err = err
			return
		}
		before := rt.Network().AllRules()
		ep := w.Topo.Endpoints[0]
		to := ep.Attach
		for _, s := range w.Topo.NodesOfKind(topo.Switch, "") {
			if s != ep.Attach {
				to = s
				break
			}
		}
		if err := rt.MoveEndpoint(context.Background(), ep.Name, to); err != nil {
			fig11Err = err
			return
		}
		fig11 = fig11Ans{tp: w.Topo, net: rt.Network(), before: before, after: rt.Network().AllRules()}
	})
	if fig11Err != nil {
		tb.Fatal(fig11Err)
	}
	return fig11
}

// BenchmarkNetworkLookup times the interpreted forwarding walk on the
// fig11 Ans install: one pair it delivers end to end, and one pair with no
// rules, whose walk blackholes at the source switch the way an isolation
// probe of the audit does.
func BenchmarkNetworkLookup(b *testing.B) {
	in := loadFig11Ans(b)
	var hit, miss [2]string
	for _, src := range in.tp.Endpoints {
		for _, dst := range in.tp.Endpoints {
			if src.Attach == dst.Attach {
				continue
			}
			walk, err := in.net.Lookup(src.Name, dst.Name, policy.TCP, 80)
			switch {
			case err == nil && len(walk) > 2 && hit[0] == "":
				hit = [2]string{src.Name, dst.Name}
			case err != nil && len(walk) == 1 && miss[0] == "":
				miss = [2]string{src.Name, dst.Name}
			}
		}
	}
	if hit[0] == "" || miss[0] == "" {
		b.Fatalf("no delivered multi-hop pair (%v) or blackholed pair (%v)", hit, miss)
	}
	for _, c := range []struct {
		name    string
		pair    [2]string
		deliver bool
	}{{"deliver", hit, true}, {"miss", miss, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := in.net.Lookup(c.pair[0], c.pair[1], policy.TCP, 80); (err == nil) != c.deliver {
					b.Fatalf("%v: err = %v", c.pair, err)
				}
			}
		})
	}
}

// BenchmarkPlanUpdate times planning one delta event's target (the rules
// after an endpoint move) against the rules installed before it.
func BenchmarkPlanUpdate(b *testing.B) {
	in := loadFig11Ans(b)
	n := dataplane.NewNetwork(in.tp)
	if err := n.ApplyPlan(n.PlanUpdate(in.before)); err != nil {
		b.Fatal(err)
	}
	ops := len(n.PlanUpdate(in.after).Ops)
	if ops == 0 {
		b.Fatal("the move changed no rules")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.PlanUpdate(in.after)
	}
	b.ReportMetric(float64(n.RuleCount()), "rules")
	b.ReportMetric(float64(ops), "ops")
}

// BenchmarkRecompile times one full compile of the fast path on the fig11
// Ans install: every class cell of every pair with rules is one Lookup.
func BenchmarkRecompile(b *testing.B) {
	in := loadFig11Ans(b)
	n := dataplane.NewNetwork(in.tp)
	install(b, n, in.before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Recompile()
	}
	c := n.Fastpath()
	b.ReportMetric(float64(c.Flows()), "flows")
	b.ReportMetric(float64(c.Outcomes()), "outcomes")
}
