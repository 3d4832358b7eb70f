package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"janus/internal/compose"
	"janus/internal/topo"
	"janus/internal/workload"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The generator is seed-deterministic, and what it generates composes the
// way the workloads assume: 50 policies, no conflicts.
func TestInstanceDeterministicAndConflictFree(t *testing.T) {
	for _, topoName := range []string{"Ans", "Cwix"} {
		for _, seed := range []int64{1, 7} {
			a, err := genInstance(topoName, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := genInstance(topoName, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			if mustJSON(t, a) != mustJSON(t, b) {
				t.Errorf("%s seed %d: two generations differ", topoName, seed)
			}
			cg, err := compose.New(nil).Compose(a.Writers...)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Writers) != numPolicies || len(cg.Policies) != numPolicies || len(cg.Conflicts) != 0 {
				t.Errorf("%s seed %d: %d writers compose to %d policies with %d conflicts, want %d, %d, 0",
					topoName, seed, len(a.Writers), len(cg.Policies), len(cg.Conflicts), numPolicies, numPolicies)
			}
			if got := cg.Periods(); len(got) != timePeriods {
				t.Errorf("%s seed %d: periods %v, want %d of them", topoName, seed, got, timePeriods)
			}
		}
	}
}

// genInstance exists because workload.GenerateOn keeps only the composed
// graph; for the same seed the two must be the same instance.
func TestInstanceMatchesWorkloadGenerator(t *testing.T) {
	in, err := genInstance("Ans", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.GenerateOn(topo.MustZoo("Ans"), workload.Spec{
		Policies: numPolicies, EndpointsPerPolicy: srcPerPolicy, TimePeriods: timePeriods, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, in.Topo) != mustJSON(t, w.Topo) {
		t.Error("topologies differ")
	}
	cg, err := compose.New(nil).Compose(in.Writers...)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, cg) != mustJSON(t, w.Graph) {
		t.Error("composed graphs differ")
	}
}

// An event stream keeps the promises the workloads rest on: it repeats for
// a seed, holds the mix's share of every kind in any prefix, and never
// asks for something the instance cannot do.
func TestEventStream(t *testing.T) {
	for name, m := range map[string]mix{"churn-ans": churnAnsMix, "churn-cwix": churnCwixMix, "arrivals": arrivalsMix} {
		stream := func(seed int64) []event {
			in, err := genInstance("Ans", instanceSeed, 0)
			if err != nil {
				t.Fatal(err)
			}
			g := newEventGen(seed, m, in.Topo)
			evs := make([]event, 400)
			for i := range evs {
				evs[i] = g.next()
				if n := len(g.down); n > maxLinksDown {
					t.Fatalf("%s event %d: %d links down", name, i, n)
				}
				if evs[i].Kind == evHour && (g.roamer != "" || g.away != "") {
					t.Fatalf("%s event %d: an hour tick with %q roaming and %q relabelled", name, i, g.roamer, g.away)
				}
				if err := g.shadow.Validate(); err != nil {
					t.Fatalf("%s event %d left the network broken: %v", name, i, err)
				}
			}
			return evs
		}
		a, other := stream(3), stream(4)
		if !reflect.DeepEqual(a, stream(3)) {
			t.Errorf("%s: one seed gave two streams", name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: two seeds gave one stream", name)
		}

		// At the limits a link failure stands in for a restore and the other
		// way round, so the two are counted as one kind.
		linkKind := func(k string) string {
			if k == evLinkRestore {
				return evLinkFail
			}
			return k
		}
		shares, counts := map[string]int{}, map[string]int{}
		for k, share := range m {
			shares[linkKind(k)] += share
		}
		var linksA, linksB []event
		for i := range a {
			counts[linkKind(a[i].Kind)]++
			for k, share := range shares {
				want := float64(share) * float64(i+1) / 100
				if d := float64(counts[k]) - want; d < -1.5 || d > 1.5 {
					t.Fatalf("%s: after %d events there are %d %s events, want %.1f", name, i+1, counts[k], k, want)
				}
			}
			// Link events are the instance's, not the seed's.
			if linkKind(a[i].Kind) == evLinkFail {
				linksA = append(linksA, a[i])
			}
			if linkKind(other[i].Kind) == evLinkFail {
				linksB = append(linksB, other[i])
			}
		}
		if !reflect.DeepEqual(linksA, linksB) {
			t.Errorf("%s: link events differ between seeds of one instance", name)
		}
	}
}

// A graph-churn stream keeps at most one writer off its base bandwidth, and
// sends it back to exactly its original graph.
func TestGraphStream(t *testing.T) {
	in, err := genInstance("Ans", instanceSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := &graphGen{rng: newTestRand(5), in: in, redrawn: -1}
	current := map[string]string{}
	for _, w := range in.Writers {
		current[w.Name] = mustJSON(t, w)
	}
	for i := 0; i < 200; i++ {
		ev := g.next()
		current[ev.Graph.Name] = mustJSON(t, ev.Graph)
		off := 0
		for _, w := range in.Writers {
			if current[w.Name] != mustJSON(t, w) {
				off++
			}
		}
		if off > 1 {
			t.Fatalf("op %d: %d writers off their base graph", i, off)
		}
	}
}
