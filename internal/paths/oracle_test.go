package paths_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// oldKey is Path.Key as it was first written, with fmt.
func oldKey(p paths.Path) string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = fmt.Sprint(int(n))
	}
	return strings.Join(parts, "-")
}

// referenceValid is the enumeration without the product-distance cut or
// the keep: every valid path of at most maxHops hops, found by a DFS over
// (node, chain progress) on an adjacency built from the link list, sorted
// by hops and oldKey.
func referenceValid(tp *topo.Topology, src, dst topo.NodeID, chain policy.Chain, maxHops int) []paths.Path {
	adj := map[topo.NodeID][]topo.NodeID{}
	for _, l := range tp.Links {
		adj[l.From] = append(adj[l.From], l.To)
	}
	for _, nb := range adj {
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	nodes := tp.Nodes
	var out []paths.Path
	visited := make([]bool, len(nodes))
	cur := []topo.NodeID{src}
	visited[src] = true
	var dfs func(n topo.NodeID, progress int)
	dfs = func(n topo.NodeID, progress int) {
		if len(cur)-1 > maxHops {
			return
		}
		if n == dst && progress == len(chain) {
			out = append(out, paths.Path{Nodes: append([]topo.NodeID(nil), cur...)})
			return
		}
		for _, nb := range adj[n] {
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

// assertPrefix fails unless got is want's first n paths, n = min(limit,
// len(want)), or all of want when limit is 0.
func assertPrefix(t *testing.T, what string, got, want []paths.Path, limit int) {
	t.Helper()
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	if keysOf(got) != keysOf(want) {
		t.Fatalf("%s: got %d paths %s\nreference %d paths %s", what, len(got), keysOf(got), len(want), keysOf(want))
	}
}

// assertMatchesReference enumerates every triple with a k = 0 and a k = 5
// enumerator, both at maxHops, and holds each to the first PoolSize(k)
// paths of referenceValid. It also holds the product distance to a lower
// bound: an unreachable pair has no valid path, and a reachable one none
// shorter than its distance. It returns how many triples have more valid
// paths than the k = 5 pool.
func assertMatchesReference(t *testing.T, tp *topo.Topology, triples []triple, maxHops int) (overPool int) {
	t.Helper()
	full := paths.NewEnumerator(tp)
	pool := paths.NewPoolEnumerator(tp, 5)
	for _, e := range []*paths.Enumerator{full, pool} {
		paths.SetMaxHops(e, maxHops)
	}
	for _, tr := range triples {
		what := fmt.Sprintf("%d->%d %v maxHops=%d", tr.src, tr.dst, tr.chain, maxHops)
		all := referenceValid(tp, tr.src, tr.dst, tr.chain, maxHops)
		got, err := full.Valid(tr.src, tr.dst, tr.chain)
		if err != nil {
			t.Fatal(err)
		}
		assertPrefix(t, what+" k=0", got, all, paths.DefaultMaxPaths)
		if got, err = pool.Valid(tr.src, tr.dst, tr.chain); err != nil {
			t.Fatal(err)
		}
		assertPrefix(t, what+" k=5", got, all, paths.PoolSize(5))
		d := paths.Distance(full, tr.src, tr.dst, tr.chain)
		if d < 0 && len(all) > 0 {
			t.Fatalf("%s: product distance unreachable, but %d valid paths", what, len(all))
		}
		if len(all) > 0 && all[0].Hops() < d {
			t.Fatalf("%s: product distance %d above the shortest valid path, %s", what, d, all[0].Key())
		}
		if len(all) > paths.PoolSize(5) {
			overPool++
		}
	}
	return overPool
}

// TestValidMatchesReference holds the pruned search to the unpruned
// reference on every pair and chain of the fig11 instances of Ans, Cwix,
// Garr201008 and Redbestel, at the default caps.
func TestValidMatchesReference(t *testing.T) {
	for _, name := range []string{"Ans", "Cwix", "Garr201008", "Redbestel"} {
		t.Run(name, func(t *testing.T) {
			tp, triples := fig11Triples(t, name)
			overPool := assertMatchesReference(t, tp, triples, paths.DefaultMaxHops)
			t.Logf("%d triples, %d above the pool", len(triples), overPool)
		})
	}
}

// randomTopo builds a connected topology of n switches, a random tree
// plus extra links, with NF boxes of three kinds: some in transit between
// two switches, some on a stick off one.
func randomTopo(rng *rand.Rand, n int) *topo.Topology {
	tp := topo.NewTopology("random")
	for i := 0; i < n; i++ {
		tp.AddSwitch("")
	}
	link := func(a, b topo.NodeID) {
		if _, ok := tp.LinkCapacity(a, b); ok || a == b {
			return
		}
		if err := tp.AddLink(a, b, 100); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		link(topo.NodeID(i), topo.NodeID(rng.Intn(i)))
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		link(topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n)))
	}
	kinds := []policy.NFKind{policy.Firewall, policy.LightIDS, policy.ByteCounter}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		nf := tp.AddNF("", kinds[rng.Intn(len(kinds))])
		link(nf, topo.NodeID(rng.Intn(n)))
		if rng.Intn(2) == 0 {
			link(nf, topo.NodeID(rng.Intn(n)))
		}
	}
	return tp
}

// TestValidMatchesReferenceRandom repeats TestValidMatchesReference on
// seeded random small topologies, on every ordered switch pair including
// same-switch pairs, with chains of up to two waypoints and random hop
// caps.
func TestValidMatchesReferenceRandom(t *testing.T) {
	kinds := []policy.NFKind{policy.Firewall, policy.LightIDS, policy.ByteCounter}
	n, overPool := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp := randomTopo(rng, 4+rng.Intn(5))
		chains := []policy.Chain{nil, {kinds[rng.Intn(3)]}, {kinds[rng.Intn(3)], kinds[rng.Intn(3)]}}
		var triples []triple
		for _, a := range tp.NodesOfKind(topo.Switch, "") {
			for _, b := range tp.NodesOfKind(topo.Switch, "") {
				for _, c := range chains {
					triples = append(triples, triple{a, b, c})
				}
			}
		}
		n += len(triples)
		overPool += assertMatchesReference(t, tp, triples, []int{3, 6, 9, paths.DefaultMaxHops}[rng.Intn(4)])
	}
	if overPool == 0 {
		t.Fatalf("%d triples, none above the pool: truncation is not exercised", n)
	}
	t.Logf("%d triples, %d above the pool", n, overPool)
}

// TestInvalidateCacheDropsDistances fails fabric links of the fig11 Cwix
// instance in turn, enumerates every pair with the link down, restores
// it, calls InvalidateCache and enumerates again, on an enumerator that
// lives through the whole sequence: a k = 5 pool enumerator over every
// fabric link, and a k = 0 one over every third. The second enumeration
// must equal a fresh enumerator's on the intact topology: product
// distances computed with the link down are longer than with it up, and
// a table kept past InvalidateCache would cut branches that hold paths.
func TestInvalidateCacheDropsDistances(t *testing.T) {
	tp, triples := fig11Triples(t, "Cwix")
	enumerate := func(e *paths.Enumerator) [][]paths.Path {
		out := make([][]paths.Path, len(triples))
		for i, tr := range triples {
			ps, err := e.Valid(tr.src, tr.dst, tr.chain)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = ps
		}
		return out
	}
	for _, tc := range []struct{ k, every int }{{5, 1}, {0, 3}} {
		want := enumerate(paths.NewPoolEnumerator(tp, tc.k))
		e := paths.NewPoolEnumerator(tp, tc.k)
		links := fabricLinks(tp)
		for i := 0; i < len(links); i += tc.every {
			l := links[i]
			if err := tp.RemoveLink(l.From, l.To); err != nil {
				t.Fatal(err)
			}
			e.InvalidateLink(l.From, l.To)
			enumerate(e)
			if err := tp.AddLink(l.From, l.To, l.Capacity); err != nil {
				t.Fatal(err)
			}
			e.InvalidateCache()
			for j, got := range enumerate(e) {
				if keysOf(got) != keysOf(want[j]) {
					tr := triples[j]
					t.Fatalf("k=%d, link %d-%d failed and restored: %d->%d %v enumerates %d paths, a fresh enumerator %d",
						tc.k, l.From, l.To, tr.src, tr.dst, tr.chain, len(got), len(want[j]))
				}
			}
		}
	}
}

// TestProductDistanceGap counts, on every fig11 triple of the four
// topologies, where the relaxed product distance and Valid disagree:
// pairs within maxHops in the product with no valid path, and pairs whose
// product distance is below their shortest valid path, so that every
// shortest product walk revisits a node at another chain progress (the
// first count is part of the second). It asserts only that the distance
// is a lower bound; the counts are logged.
func TestProductDistanceGap(t *testing.T) {
	for _, name := range []string{"Ans", "Cwix", "Garr201008", "Redbestel"} {
		tp, triples := fig11Triples(t, name)
		e := paths.NewEnumerator(tp)
		noPath, revisit := 0, 0
		for _, tr := range triples {
			ps, err := e.Valid(tr.src, tr.dst, tr.chain)
			if err != nil {
				t.Fatal(err)
			}
			d := paths.Distance(e, tr.src, tr.dst, tr.chain)
			switch {
			case d < 0 || d > paths.DefaultMaxHops:
				if len(ps) > 0 {
					t.Fatalf("%s %d->%d %v: product distance %d, but a valid path %s", name, tr.src, tr.dst, tr.chain, d, ps[0].Key())
				}
			case len(ps) == 0:
				noPath++
				revisit++
			case d < ps[0].Hops():
				revisit++
			case d > ps[0].Hops():
				t.Fatalf("%s %d->%d %v: product distance %d above the shortest valid path %s", name, tr.src, tr.dst, tr.chain, d, ps[0].Key())
			}
		}
		t.Logf("%s: %d triples; %d within %d product hops with no valid path; %d whose shortest product walks all revisit a node",
			name, len(triples), noPath, paths.DefaultMaxHops, revisit)
	}
}
