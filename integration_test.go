package janus_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"janus/internal/check"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/topo"
	"janus/internal/workload"
)

// TestPipelineInvariants runs the full pipeline — generate workload,
// configure, compile to rules, apply to the dataplane — on several
// topologies and asserts the system-wide invariants that must hold for any
// valid Janus configuration:
//
//  1. Group atomicity: a configured policy has a hard path for every
//     endpoint pair; a violated policy has none.
//  2. Capacity: the sum of reservations on every directed link stays within
//     capacity (Eqn 3), and the dataplane's promised queue bandwidth
//     agrees.
//  3. Chain enforcement: every forwarding walk traverses its edge's NF
//     kinds in order.
//  4. Determinism: the same seed reproduces the same satisfied set.
func TestPipelineInvariants(t *testing.T) {
	for _, topoName := range []string{"Ans", "Cwix", "Internode"} {
		topoName := topoName
		t.Run(topoName, func(t *testing.T) {
			w, err := workload.Generate(topoName, workload.Spec{
				Policies: 12, EndpointsPerPolicy: 2, StatefulEdges: 1, Seed: 99,
			})
			if err != nil {
				t.Fatal(err)
			}
			conf, err := core.New(w.Topo, w.Graph, core.Config{
				CandidatePaths: 5, Seed: 99, MaxNodes: 2000, TimeLimit: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := conf.Configure(0)
			if err != nil {
				t.Fatal(err)
			}
			if res.SatisfiedCount() == 0 {
				t.Fatal("no policies satisfied; workload degenerate")
			}

			// Invariant 1: group atomicity.
			for _, p := range w.Graph.Policies {
				pairs := pairsOf(w.Topo, p.Src.Labels, p.Dst.Labels)
				hardPaths := 0
				for _, a := range res.Assignments {
					if a.Policy == p.ID && a.Role == core.HardEdge {
						hardPaths++
					}
				}
				if res.Configured[p.ID] && hardPaths != len(pairs) {
					t.Errorf("policy %d configured but has %d/%d pair paths",
						p.ID, hardPaths, len(pairs))
				}
				if !res.Configured[p.ID] && hardPaths != 0 {
					t.Errorf("policy %d violated but has %d hard paths", p.ID, hardPaths)
				}
			}

			// Invariant 2: link capacity.
			for _, l := range res.Links {
				if l.Reserved > l.Capacity+1e-6 {
					t.Errorf("link %d->%d over capacity: %g > %g",
						l.From, l.To, l.Reserved, l.Capacity)
				}
			}

			// Apply to the dataplane and re-check from the rules side.
			net := dataplane.NewNetwork(w.Topo)
			rules := dataplane.CompileRules(w.Topo, dataplane.NewGraphAdapter(w.Graph), res)
			if err := net.ApplyPlan(net.PlanUpdate(rules)); err != nil {
				t.Fatal(err)
			}
			net.Recompile()
			if over := net.OverSubscribed(); len(over) != 0 {
				t.Errorf("dataplane oversubscribed: %v", over)
			}
			// The independent auditor must agree the configuration is clean.
			if violations := check.Audit(w.Topo, w.Graph, net, res, 0, nil); len(violations) != 0 {
				t.Errorf("audit violations: %v", violations)
			}

			// Invariant 3: chain enforcement end to end.
			for _, a := range res.Assignments {
				if a.Role != core.HardEdge {
					continue
				}
				p := w.Graph.PolicyByID(a.Policy)
				edge := p.AllEdges()[a.EdgeIdx]
				proto, port := policy.TCP, 80
				if !edge.Match.MatchAll() && len(edge.Match.Ports) > 0 {
					proto, port = edge.Match.Proto, edge.Match.Ports[0]
				}
				walk, err := net.Lookup(a.Src, a.Dst, proto, port)
				if err != nil {
					t.Errorf("policy %d %s->%s: %v", a.Policy, a.Src, a.Dst, err)
					continue
				}
				prog := 0
				for _, n := range walk {
					if prog < len(edge.Chain) && w.Topo.Nodes[n].Kind == topo.NFBox &&
						w.Topo.Nodes[n].NF == edge.Chain[prog] {
						prog++
					}
				}
				if prog != len(edge.Chain) {
					t.Errorf("policy %d %s->%s: chain %v not traversed in %v",
						a.Policy, a.Src, a.Dst, edge.Chain, walk)
				}
			}

			// Invariant 4: determinism.
			w2, err := workload.Generate(topoName, workload.Spec{
				Policies: 12, EndpointsPerPolicy: 2, StatefulEdges: 1, Seed: 99,
			})
			if err != nil {
				t.Fatal(err)
			}
			conf2, err := core.New(w2.Topo, w2.Graph, core.Config{
				CandidatePaths: 5, Seed: 99, MaxNodes: 2000, TimeLimit: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			res2, err := conf2.Configure(0)
			if err != nil {
				t.Fatal(err)
			}
			for pid, ok := range res.Configured {
				if res2.Configured[pid] != ok {
					t.Errorf("determinism: policy %d differs across identical runs", pid)
				}
			}
		})
	}
}

// TestChurnSequence drives a runtime through a randomized sequence of
// dynamics — moves, membership changes, temporal ticks, link failures —
// asserting after every event that the dataplane verifies and capacity
// holds. This is the failure-injection test for the §2.2 dynamics.
func TestChurnSequence(t *testing.T) {
	w, err := workload.Generate("Ans", workload.Spec{
		Policies: 8, EndpointsPerPolicy: 2, TimePeriods: 3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(w.Topo, w.Graph, core.Config{
		CandidatePaths: 5, Seed: 42, MaxNodes: 2000, TimeLimit: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(context.Background(), conf)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if problems := rt.Verify(); len(problems) != 0 {
			t.Fatalf("after %s: %v", step, problems)
		}
		if over := rt.Network().OverSubscribed(); len(over) != 0 {
			t.Fatalf("after %s: oversubscribed %v", step, over)
		}
	}
	check("initial install")

	switches := w.Topo.NodesOfKind(topo.Switch, "")
	// Endpoint mobility.
	ep := w.Topo.Endpoints[0].Name
	if err := rt.MoveEndpoint(context.Background(), ep, switches[len(switches)/2]); err != nil {
		t.Fatal(err)
	}
	check("endpoint move")

	// Membership change.
	if err := rt.RelabelEndpoint(context.Background(), ep, "Visitors"); err != nil {
		t.Fatal(err)
	}
	check("membership change")

	// Temporal transitions through the full day.
	for _, h := range []int{8, 16, 23} {
		if err := rt.AdvanceTo(context.Background(), h); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("advance to %dh", h))
	}

	// Link failure on a link some flow uses (pick from current
	// assignments; skip if none found).
	for _, a := range rt.Current().Assignments {
		links := a.Path.Links()
		if len(links) == 0 {
			continue
		}
		l := links[0]
		if err := rt.FailLink(context.Background(), l[0], l[1]); err != nil {
			t.Fatal(err)
		}
		check("link failure")
		break
	}

	m := rt.Metrics()
	if m.Reconfigurations == 0 || m.RulesInstalled == 0 {
		t.Errorf("churn sequence should have reconfigured: %+v", m)
	}
}

// TestTemporalChainVsIndependentIntegration checks the Table 5 property on
// a real workload: the greedy chain never causes more cross-period path
// changes than the independent baseline.
func TestTemporalChainVsIndependentIntegration(t *testing.T) {
	w, err := workload.Generate("Ans", workload.Spec{
		Policies: 10, EndpointsPerPolicy: 2, TimePeriods: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(w.Topo, w.Graph, core.Config{
		CandidatePaths: 5, Seed: 5, MaxNodes: 2000, TimeLimit: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := conf.ConfigureTemporal()
	if err != nil {
		t.Fatal(err)
	}
	indep, err := conf.ConfigureTemporalIndependent()
	if err != nil {
		t.Fatal(err)
	}
	if greedy.PathChanges > indep.PathChanges {
		t.Errorf("greedy chain has MORE path changes (%d) than independent (%d)",
			greedy.PathChanges, indep.PathChanges)
	}
	if greedy.TotalConfigured == 0 {
		t.Error("greedy chain configured nothing")
	}
}

// pairsOf mirrors the configurator's endpoint-pair derivation for
// assertions.
func pairsOf(tp *topo.Topology, srcLabels, dstLabels []string) [][2]string {
	srcs := tp.EndpointsMatching(policy.NewEPG("s", srcLabels...))
	dsts := tp.EndpointsMatching(policy.NewEPG("d", dstLabels...))
	var out [][2]string
	for _, s := range srcs {
		for _, d := range dsts {
			if s != d {
				out = append(out, [2]string{s, d})
			}
		}
	}
	return out
}
