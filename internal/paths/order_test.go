package paths_test

import (
	"fmt"
	"sort"
	"strings"
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

// oldKey is Path.Key as it was first written, with fmt.
func oldKey(p paths.Path) string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = fmt.Sprint(int(n))
	}
	return strings.Join(parts, "-")
}

// referenceValid is Enumerator.Valid as it was first written, at the
// default caps: a DFS over an adjacency it builds from the link list, a
// visited map, and a sort that formats both keys in every comparison.
func referenceValid(tp *topo.Topology, src, dst topo.NodeID, chain policy.Chain) []paths.Path {
	adj := map[topo.NodeID][]topo.NodeID{}
	for _, l := range tp.Links {
		adj[l.From] = append(adj[l.From], l.To)
	}
	for _, nb := range adj {
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	nodes := tp.Nodes
	var out []paths.Path
	visited := map[topo.NodeID]bool{src: true}
	cur := []topo.NodeID{src}
	var dfs func(n topo.NodeID, progress int)
	dfs = func(n topo.NodeID, progress int) {
		if len(out) >= paths.DefaultMaxPaths || len(cur)-1 > paths.DefaultMaxHops {
			return
		}
		if n == dst && progress == len(chain) {
			out = append(out, paths.Path{Nodes: append([]topo.NodeID(nil), cur...)})
			return
		}
		for _, nb := range append([]topo.NodeID(nil), adj[n]...) {
			isReturn := nodes[n].Kind == topo.NFBox && len(cur) >= 2 && cur[len(cur)-2] == nb
			if visited[nb] && !isReturn {
				continue
			}
			next := progress
			if nodes[nb].Kind == topo.NFBox {
				if progress >= len(chain) || nodes[nb].NF != chain[progress] {
					continue
				}
				next = progress + 1
			}
			wasVisited := visited[nb]
			visited[nb] = true
			cur = append(cur, nb)
			dfs(nb, next)
			cur = cur[:len(cur)-1]
			if !wasVisited {
				visited[nb] = false
			}
		}
	}
	dfs(src, 0)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hops() != out[j].Hops() {
			return out[i].Hops() < out[j].Hops()
		}
		return oldKey(out[i]) < oldKey(out[j])
	})
	return out
}

// TestValidOrderPinned holds Valid, and Path.Key, to the enumeration as
// first written on every pair of the fig11 Ans and Cwix instances: the
// same paths in the same order, so seeded candidate draws do not move.
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
				want := referenceValid(tp, tr.src, tr.dst, tr.chain)
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

// BenchmarkEnumerateCold enumerates every pair of the fig11 Cwix instance
// with a fresh enumerator: the path work of a cold start.
func BenchmarkEnumerateCold(b *testing.B) {
	tp, triples := fig11Triples(b, "Cwix")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := paths.NewEnumerator(tp)
		for _, tr := range triples {
			if _, err := e.Valid(tr.src, tr.dst, tr.chain); err != nil {
				b.Fatal(err)
			}
		}
	}
}
