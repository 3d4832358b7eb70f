package compose

import (
	"fmt"
	"math/rand"
	"testing"

	"janus/internal/labels"
	"janus/internal/policy"
)

// randomGraph builds a random single-pair policy graph over a fixed pair of
// composed EPGs, with random classifiers, chains, QoS labels and dynamic
// conditions.
func randomGraph(rng *rand.Rand, name string) *policy.Graph {
	g := policy.NewGraph(name)
	g.AddEPG(policy.NewEPG("C", "Clients"))
	g.AddEPG(policy.NewEPG("W", "Web"))
	nEdges := rng.Intn(2) + 1
	for i := 0; i < nEdges; i++ {
		e := policy.Edge{Src: "C", Dst: "W"}
		if rng.Float64() < 0.5 {
			e.Match = policy.Classifier{Proto: policy.TCP, Ports: []int{80 + rng.Intn(3)}}
		}
		if rng.Float64() < 0.5 {
			kinds := []policy.NFKind{policy.Firewall, policy.LoadBalance, policy.LightIDS}
			e.Chain = policy.Chain{kinds[rng.Intn(len(kinds))]}
		}
		switch rng.Intn(3) {
		case 0:
			ls := []labels.Label{"low", "medium", "high"}
			e.QoS.MinBandwidth = ls[rng.Intn(len(ls))]
		case 1:
			e.QoS.BandwidthMbps = float64(10 + rng.Intn(50))
		}
		if i > 0 {
			// Non-default edges carry a stateful condition.
			e.Cond.Stateful = policy.WhenAtLeast(policy.FailedConnections, 3+rng.Intn(5))
		} else {
			e.Default = true
		}
		g.AddEdge(e)
	}
	return g
}

// Property: composition is deterministic and idempotent in structure —
// composing the same inputs twice yields the same policies, and the
// composed graph always validates basic invariants: each policy has a
// default edge active for normal traffic at some hour, weights are
// positive, and keys are unique.
func TestComposeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(3) + 1
		inputs := make([]*policy.Graph, n)
		seed := rng.Int63()
		mk := func() []*policy.Graph {
			local := rand.New(rand.NewSource(seed))
			out := make([]*policy.Graph, n)
			for i := range out {
				out[i] = randomGraph(local, fmt.Sprintf("w%d", i))
			}
			return out
		}
		inputs = mk()
		g1, err := New(nil).Compose(inputs...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g2, err := New(nil).Compose(mk()...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(g1.Policies) != len(g2.Policies) {
			t.Fatalf("trial %d: nondeterministic policy count %d vs %d",
				trial, len(g1.Policies), len(g2.Policies))
		}
		seen := map[string]bool{}
		for i, p := range g1.Policies {
			if p.Weight <= 0 {
				t.Errorf("trial %d: policy %d weight %v", trial, p.ID, p.Weight)
			}
			if seen[p.Key()] {
				t.Errorf("trial %d: duplicate policy key %s", trial, p.Key())
			}
			seen[p.Key()] = true
			if p.Key() != g2.Policies[i].Key() {
				t.Errorf("trial %d: nondeterministic order", trial)
			}
			// Edge count matches across runs.
			if len(p.NonDefault) != len(g2.Policies[i].NonDefault) {
				t.Errorf("trial %d: nondeterministic edges", trial)
			}
		}
	}
}

// Property: the composed QoS of same-metric merges is never worse than
// either input (the §4.1 better-performance rule).
func TestComposeQoSMonotone(t *testing.T) {
	scheme := labels.Default()
	ls := []labels.Label{"low", "medium", "high"}
	for _, la := range ls {
		for _, lb := range ls {
			a := policy.NewGraph("a")
			a.AddEdge(policy.Edge{Src: "C", Dst: "W", QoS: policy.QoS{MinBandwidth: la}})
			b := policy.NewGraph("b")
			b.AddEdge(policy.Edge{Src: "C", Dst: "W", QoS: policy.QoS{MinBandwidth: lb}})
			g, err := New(scheme).Compose(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Policies) != 1 {
				t.Fatalf("compose(%s,%s): %d policies", la, lb, len(g.Policies))
			}
			got := g.Policies[0].Default.QoS.MinBandwidth
			for _, in := range []labels.Label{la, lb} {
				better, err := scheme.Better(labels.MinBandwidth, in, got)
				if err != nil {
					t.Fatal(err)
				}
				if better {
					t.Errorf("compose(%s,%s) = %s, worse than input %s", la, lb, got, in)
				}
			}
		}
	}
}

// Property: a composed stateful policy's edges are mutually exclusive in
// the states where more than one could apply only if their specificity
// ordering resolves the tie (ActiveEdge is deterministic and total for
// in-range counters).
func TestActiveEdgeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		a := randomGraph(rng, "a")
		b := randomGraph(rng, "b")
		g, err := New(nil).Compose(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range g.Policies {
			for counter := 0; counter < 12; counter++ {
				state := map[policy.Event]int{policy.FailedConnections: counter}
				e1, i1, ok1 := ActiveEdge(p, 12, state)
				e2, i2, ok2 := ActiveEdge(p, 12, state)
				if ok1 != ok2 || i1 != i2 || (ok1 && e1.String() != e2.String()) {
					t.Fatalf("trial %d: ActiveEdge nondeterministic at counter %d", trial, counter)
				}
				if ok1 && p.AllEdges()[i1].String() != e1.String() {
					t.Fatalf("trial %d: ActiveEdge index %d names %v, not the returned %v", trial, i1, p.AllEdges()[i1], e1)
				}
			}
		}
	}
}
