package workload

import (
	"math/rand"
	"testing"

	"janus/internal/core"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

func TestGenerateBasics(t *testing.T) {
	w, err := Generate("Ans", Spec{Policies: 10, EndpointsPerPolicy: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Graph.Policies); got != 10 {
		t.Errorf("policies = %d, want 10", got)
	}
	// 3 sources + 1 destination per policy.
	if got := len(w.Topo.Endpoints); got != 10*4 {
		t.Errorf("endpoints = %d, want 40", got)
	}
	if err := w.Topo.Validate(); err != nil {
		t.Errorf("generated topology invalid: %v", err)
	}
	// Every policy must have a positive bandwidth in [10,30].
	for _, p := range w.Graph.Policies {
		bw := p.Default.QoS.BandwidthMbps
		if bw < 10 || bw > 30 {
			t.Errorf("policy %d bandwidth %g outside [10,30]", p.ID, bw)
		}
		if len(p.Default.Chain) > 2 {
			t.Errorf("policy %d chain %v longer than 2", p.ID, p.Default.Chain)
		}
	}
	// NF boxes exist for every pool kind.
	for _, kind := range NFPool {
		if len(w.Topo.NodesOfKind(topo.NFBox, kind)) == 0 {
			t.Errorf("no %s boxes placed", kind)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("Ans", Spec{Policies: 5, EndpointsPerPolicy: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("Ans", Spec{Policies: 5, EndpointsPerPolicy: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Topo.Links) != len(b.Topo.Links) || len(a.Topo.Endpoints) != len(b.Topo.Endpoints) {
		t.Fatal("same seed should give identical workloads")
	}
	for i := range a.Graph.Policies {
		if a.Graph.Policies[i].Default.QoS.BandwidthMbps != b.Graph.Policies[i].Default.QoS.BandwidthMbps {
			t.Fatal("bandwidths differ across identical seeds")
		}
	}
	c, err := Generate("Ans", Spec{Policies: 5, EndpointsPerPolicy: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range a.Graph.Policies {
		if a.Graph.Policies[i].Default.QoS.BandwidthMbps != c.Graph.Policies[i].Default.QoS.BandwidthMbps {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should give different bandwidths")
	}
}

func TestGenerateValidatesSpec(t *testing.T) {
	if _, err := Generate("Ans", Spec{Policies: 0, EndpointsPerPolicy: 1}); err == nil {
		t.Error("zero policies should error")
	}
	if _, err := Generate("Ans", Spec{Policies: 1, EndpointsPerPolicy: 0}); err == nil {
		t.Error("zero endpoints should error")
	}
	if _, err := Generate("Atlantis", Spec{Policies: 1, EndpointsPerPolicy: 1}); err == nil {
		t.Error("unknown topology should error")
	}
}

func TestPriorityClasses(t *testing.T) {
	w, err := Generate("Ans", Spec{
		Policies: 9, EndpointsPerPolicy: 1, Seed: 3,
		PriorityClasses: []float64{8, 4, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, p := range w.Graph.Policies {
		counts[p.Weight]++
	}
	if counts[8] != 3 || counts[4] != 3 || counts[2] != 3 {
		t.Errorf("weight distribution = %v, want 3 each", counts)
	}
}

func TestTimePeriods(t *testing.T) {
	w, err := Generate("Ans", Spec{
		Policies: 10, EndpointsPerPolicy: 1, Seed: 4, TimePeriods: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	periods := w.Graph.Periods()
	if len(periods) < 5 {
		t.Errorf("periods = %v, want at least 5 boundaries", periods)
	}
	// Fig 6 semantics: every policy spans the whole day — at each boundary
	// exactly one of its temporal edges is active, and each policy's peak
	// window doubles the bandwidth ask.
	for _, p := range w.Graph.Policies {
		var bws []float64
		for _, h := range periods {
			active := 0
			for _, e := range p.AllEdges() {
				if e.Cond.Stateful.IsAlways() && e.Cond.Window.Contains(h) {
					active++
					bws = append(bws, e.QoS.BandwidthMbps)
				}
			}
			if active != 1 {
				t.Fatalf("policy %d: %d temporal edges active at %dh, want 1", p.ID, active, h)
			}
		}
		// One window (the peak) asks for double.
		maxBW, minBW := bws[0], bws[0]
		for _, b := range bws {
			if b > maxBW {
				maxBW = b
			}
			if b < minBW {
				minBW = b
			}
		}
		if maxBW < 2*minBW-1e-9 {
			t.Errorf("policy %d: peak bandwidth %v not double the base %v", p.ID, maxBW, minBW)
		}
	}
}

func TestRoutableChains(t *testing.T) {
	w, err := Generate("Ans", Spec{Policies: 12, EndpointsPerPolicy: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Every policy's default chain must be routable for every pair — the
	// generator trims unroutable chains.
	e := paths.NewEnumerator(w.Topo)
	for _, p := range w.Graph.Policies {
		srcs := w.Topo.EndpointsMatching(p.Src)
		dsts := w.Topo.EndpointsMatching(p.Dst)
		for _, s := range srcs {
			for _, d := range dsts {
				se, _ := w.Topo.EndpointByName(s)
				de, _ := w.Topo.EndpointByName(d)
				got, err := e.Valid(se.Attach, de.Attach, p.Default.Chain)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 {
					t.Errorf("policy %d pair %s->%s: chain %v unroutable", p.ID, s, d, p.Default.Chain)
				}
			}
		}
	}
}

func TestStatefulEdges(t *testing.T) {
	w, err := Generate("Ans", Spec{
		Policies: 4, EndpointsPerPolicy: 1, Seed: 5, StatefulEdges: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Graph.Policies {
		if len(p.NonDefault) != 2 {
			t.Errorf("policy %d has %d escalation edges, want 2", p.ID, len(p.NonDefault))
		}
		for _, e := range p.NonDefault {
			if e.Cond.Stateful.IsAlways() {
				t.Errorf("escalation edge of policy %d has no stateful condition", p.ID)
			}
		}
	}
}

func TestWorkloadIsConfigurable(t *testing.T) {
	// End-to-end smoke: a generated workload must be solvable by the
	// configurator with a meaningful satisfaction rate.
	w, err := Generate("Ans", Spec{Policies: 8, EndpointsPerPolicy: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conf.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SatisfiedCount() == 0 {
		t.Error("generated workload should satisfy at least one policy")
	}
	for _, l := range res.Links {
		if l.Reserved > l.Capacity+1e-6 {
			t.Errorf("link %d->%d oversubscribed", l.From, l.To)
		}
	}
}

func TestMoveRandomEndpoints(t *testing.T) {
	w, err := Generate("Ans", Spec{Policies: 5, EndpointsPerPolicy: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	moved := w.MoveRandomEndpoints(rng, 5)
	if len(moved) != 5 {
		t.Errorf("moved %d endpoints, want 5", len(moved))
	}
	if err := w.Topo.Validate(); err != nil {
		t.Errorf("topology invalid after moves: %v", err)
	}
}

func TestPeriodWindow(t *testing.T) {
	for n := 2; n <= 6; n++ {
		covered := make([]bool, policy.HoursPerDay)
		for k := 0; k < n; k++ {
			win := periodWindow(k, n)
			for h := 0; h < policy.HoursPerDay; h++ {
				if win.Contains(h) {
					covered[h] = true
				}
			}
		}
		for h, ok := range covered {
			if !ok {
				t.Errorf("n=%d: hour %d not covered by any window", n, h)
			}
		}
	}
}
