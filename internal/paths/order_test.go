package paths_test

import (
	"fmt"
	"testing"

	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
	"janus/internal/workload"
)

// triple is one enumeration: a source and destination switch and a chain.
type triple struct {
	src, dst topo.NodeID
	chain    policy.Chain
}

// fig11Triples generates the fig11 50-policy instance on topoName and
// returns its topology and every (src switch, dst switch, chain) its
// policies' endpoint pairs ask for, each once.
func fig11Triples(tb testing.TB, topoName string) (*topo.Topology, []triple) {
	tb.Helper()
	w, err := workload.Generate(topoName, workload.Spec{Policies: 50, EndpointsPerPolicy: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tp := w.Topo
	seen := map[string]bool{}
	var out []triple
	for _, p := range w.Graph.Policies {
		dsts := tp.EndpointsMatching(p.Dst)
		for _, s := range tp.EndpointsMatching(p.Src) {
			for _, d := range dsts {
				if s == d {
					continue
				}
				se, _ := tp.EndpointByName(s)
				de, _ := tp.EndpointByName(d)
				for _, e := range p.AllEdges() {
					tr := triple{se.Attach, de.Attach, e.Chain}
					if k := fmt.Sprint(tr); !seen[k] {
						seen[k] = true
						out = append(out, tr)
					}
				}
			}
		}
	}
	return tp, out
}

// TestValidOrderPinned holds Valid, and Path.Key, to the unpruned
// reference enumeration, sorted with Key as first written, on every pair
// of the fig11 Ans and Cwix instances: the same paths in the same order,
// so seeded candidate draws do not move.
func TestValidOrderPinned(t *testing.T) {
	for _, name := range []string{"Ans", "Cwix"} {
		t.Run(name, func(t *testing.T) {
			tp, triples := fig11Triples(t, name)
			e := paths.NewEnumerator(tp)
			total := 0
			for _, tr := range triples {
				got, err := e.Valid(tr.src, tr.dst, tr.chain)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceValid(tp, tr.src, tr.dst, tr.chain, paths.DefaultMaxHops)
				want = want[:min(len(want), paths.DefaultMaxPaths)]
				if len(got) != len(want) {
					t.Fatalf("%d->%d %v: %d paths, reference %d", tr.src, tr.dst, tr.chain, len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) || got[i].Key() != oldKey(want[i]) {
						t.Fatalf("%d->%d %v: path %d is %s, reference %s", tr.src, tr.dst, tr.chain, i, got[i].Key(), oldKey(want[i]))
					}
				}
				total += len(got)
			}
			t.Logf("%s: %d triples, %d paths", name, len(triples), total)
		})
	}
}

// BenchmarkEnumerateCold enumerates every pair of the fig11 Ans and Cwix
// instances with a fresh enumerator, at k = 0 (what the instance draw
// pays) and pooled for k = 5 (what the configurator's cold cache pays):
// the path work of a cold start. It reports the search nodes expanded.
func BenchmarkEnumerateCold(b *testing.B) {
	for _, name := range []string{"Ans", "Cwix"} {
		tp, triples := fig11Triples(b, name)
		for _, k := range []int{0, 5} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				b.ReportAllocs()
				expanded := 0
				for i := 0; i < b.N; i++ {
					e := paths.NewPoolEnumerator(tp, k)
					for _, tr := range triples {
						if _, err := e.Valid(tr.src, tr.dst, tr.chain); err != nil {
							b.Fatal(err)
						}
					}
					expanded += paths.Expanded(e)
				}
				b.ReportMetric(float64(expanded)/float64(b.N), "dfs-nodes/op")
			})
		}
	}
}
