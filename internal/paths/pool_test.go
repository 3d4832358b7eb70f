package paths_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"janus/internal/paths"
	"janus/internal/topo"
)

// poolKs are the candidate counts the pool tests draw with; 1, 2 and 5
// share the 20-path floor, 10 and 20 have pools of their own.
var poolKs = []int{1, 2, 5, 10, 20}

// hopBudgets are the hop budgets the pool tests filter with; 0 is none.
var hopBudgets = []int{0, 3, 5, 7}

// withMaxHops lowers e's path-length cap to maxHops, unless it is 0.
func withMaxHops(e *paths.Enumerator, maxHops int) *paths.Enumerator {
	if maxHops > 0 {
		paths.SetMaxHops(e, maxHops)
	}
	return e
}

// poolEnumerators returns one pool enumerator per distinct pool size of
// poolKs, keyed by that size.
func poolEnumerators(tp *topo.Topology, maxHops int) map[int]*paths.Enumerator {
	out := map[int]*paths.Enumerator{}
	for _, k := range poolKs {
		if out[paths.PoolSize(k)] == nil {
			out[paths.PoolSize(k)] = withMaxHops(paths.NewPoolEnumerator(tp, k), maxHops)
		}
	}
	return out
}

// fullEnumerator returns a k = 0 enumerator, which keeps a pair's
// DefaultMaxPaths shortest paths.
func fullEnumerator(tp *topo.Topology, maxHops int) *paths.Enumerator {
	return withMaxHops(paths.NewEnumerator(tp), maxHops)
}

// countOver returns how many triples full enumerates more than n paths
// for.
func countOver(t *testing.T, full *paths.Enumerator, triples []triple, n int) (over int) {
	t.Helper()
	for _, tr := range triples {
		ps, err := full.Valid(tr.src, tr.dst, tr.chain)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) > n {
			over++
		}
	}
	return over
}

// assertSameCandidates draws Candidates for every triple, for every k of
// poolKs that has a pool enumerator in pooled, and for every hop budget,
// from that enumerator and from full. Each triple's draws share one rng
// per side, seeded the same, so a draw that differs in its paths or in how
// much of the rng it used fails the test.
func assertSameCandidates(t *testing.T, what string, pooled map[int]*paths.Enumerator, full *paths.Enumerator, triples []triple) {
	t.Helper()
	for i, tr := range triples {
		rngGot, rngWant := rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
		for _, k := range poolKs {
			e := pooled[paths.PoolSize(k)]
			if e == nil {
				continue
			}
			for _, budget := range hopBudgets {
				got, err := e.Candidates(rngGot, tr.src, tr.dst, tr.chain, k, budget)
				if err != nil {
					t.Fatal(err)
				}
				want, err := full.Candidates(rngWant, tr.src, tr.dst, tr.chain, k, budget)
				if err != nil {
					t.Fatal(err)
				}
				if keysOf(got) != keysOf(want) {
					t.Fatalf("%s: %d->%d %v k=%d budget=%d: pool drew %s, full %s",
						what, tr.src, tr.dst, tr.chain, k, budget, keysOf(got), keysOf(want))
				}
			}
		}
		if rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("%s: %d->%d %v: pool and full draws used different amounts of the rng", what, tr.src, tr.dst, tr.chain)
		}
	}
}

// keysOf joins the paths' keys, in order, with spaces.
func keysOf(ps []paths.Path) string {
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key()
	}
	return strings.Join(keys, " ")
}

// fabricLinks returns each switch-to-switch link of tp once.
func fabricLinks(tp *topo.Topology) []topo.Link {
	var out []topo.Link
	for _, l := range tp.Links {
		if l.From < l.To && tp.Nodes[l.From].Kind == topo.Switch && tp.Nodes[l.To].Kind == topo.Switch {
			out = append(out, l)
		}
	}
	return out
}

// TestPoolCandidatesMatchFull holds a pool enumerator to a k = 0 one: on
// every pair and chain of the fig11 Ans and Cwix instances, for every k
// of poolKs and every hop budget, the same seeded rng draws the same
// Candidates. On Cwix the pools truncate: many pairs have hundreds of
// valid paths.
func TestPoolCandidatesMatchFull(t *testing.T) {
	for _, name := range []string{"Ans", "Cwix"} {
		t.Run(name, func(t *testing.T) {
			tp, triples := fig11Triples(t, name)
			over := countOver(t, fullEnumerator(tp, 0), triples, paths.PoolSize(1))
			if name == "Cwix" && over == 0 {
				t.Fatal("no Cwix triple has more valid paths than the smallest pool: truncation is not exercised")
			}
			assertSameCandidates(t, "intact", poolEnumerators(tp, 0), fullEnumerator(tp, 0), triples)
			t.Logf("%d triples, %d above the smallest pool", len(triples), over)
		})
	}
}

// TestInvalidateLinkPoolMatchesFresh repeats TestPoolCandidatesMatchFull
// after each single fabric-link failure: a pool enumerator warmed on the
// intact topology and then selectively invalidated must draw what a fresh
// k = 0 enumerator draws on the mutated topology. The failures take the
// pool sizes in turn, so each size sees a third of them. On Cwix paths
// are capped at 10 hops, which keeps the enumerations per failure cheap
// while most pairs still have more paths than the smallest pool. (No Ans
// entry holds more than 20 paths, the smallest pool, so there the pools
// truncate nothing.)
func TestInvalidateLinkPoolMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxHops int
	}{{"Ans", 0}, {"Cwix", 10}} {
		t.Run(fmt.Sprintf("%s/maxHops=%d", tc.name, tc.maxHops), func(t *testing.T) {
			tp, triples := fig11Triples(t, tc.name)
			over := countOver(t, fullEnumerator(tp, tc.maxHops), triples, paths.PoolSize(1))
			if tc.name == "Cwix" && over == 0 {
				t.Fatal("no Cwix triple has more valid paths than the smallest pool: truncation is not exercised")
			}
			sizes := []int{paths.PoolSize(1), paths.PoolSize(10), paths.PoolSize(20)}
			links := fabricLinks(tp)
			for i, l := range links {
				size := sizes[i%len(sizes)]
				e := poolEnumerators(tp, tc.maxHops)[size]
				for _, tr := range triples {
					if _, err := e.Valid(tr.src, tr.dst, tr.chain); err != nil {
						t.Fatal(err)
					}
				}
				if err := tp.RemoveLink(l.From, l.To); err != nil {
					t.Fatal(err)
				}
				e.InvalidateLink(l.From, l.To)
				assertSameCandidates(t, fmt.Sprintf("link %d-%d failed", l.From, l.To),
					map[int]*paths.Enumerator{size: e}, fullEnumerator(tp, tc.maxHops), triples)
				if err := tp.AddLink(l.From, l.To, l.Capacity); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%d triples, %d above the smallest pool, %d fabric links", len(triples), over, len(links))
		})
	}
}

// TestPoolEnumeratorRejectsWiderDraws checks that a pool enumerator
// refuses a draw whose pool it does not keep, instead of drawing from a
// truncated list.
func TestPoolEnumeratorRejectsWiderDraws(t *testing.T) {
	tp, triples := fig11Triples(t, "Cwix")
	tr := triples[0]
	e := paths.NewPoolEnumerator(tp, 5)
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 5} {
		if _, err := e.Candidates(rng, tr.src, tr.dst, tr.chain, k, 0); err != nil {
			t.Errorf("k=%d within the pool: %v", k, err)
		}
	}
	for _, k := range []int{6, 0, -1} {
		if _, err := e.Candidates(rng, tr.src, tr.dst, tr.chain, k, 0); err == nil {
			t.Errorf("k=%d needs more than the 20 kept paths, but Candidates drew", k)
		}
	}
}

// switchPairs returns every ordered pair of distinct switches of tp as a
// chainless triple.
func switchPairs(tp *topo.Topology) []triple {
	sws := tp.NodesOfKind(topo.Switch, "")
	var out []triple
	for _, a := range sws {
		for _, b := range sws {
			if a != b {
				out = append(out, triple{src: a, dst: b})
			}
		}
	}
	return out
}

// TestPoolCacheBounded drives Candidates over every switch pair of the
// fig11 Cwix instance at k = 5, then runs cycles that invalidate a few
// fabric links and draw every pair again. Every cached entry must hold at
// most the pool, and the cache must come back to one entry per pair after
// every cycle.
func TestPoolCacheBounded(t *testing.T) {
	const k = 5
	tp, _ := fig11Triples(t, "Cwix")
	pairs := switchPairs(tp)
	links := fabricLinks(tp)
	e := paths.NewPoolEnumerator(tp, k)
	rng := rand.New(rand.NewSource(1))
	drawAll := func() {
		for _, tr := range pairs {
			if _, err := e.Candidates(rng, tr.src, tr.dst, tr.chain, k, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	drawAll()
	first := paths.CacheStats(e)
	if first.Entries != len(pairs) || first.Longest != paths.PoolSize(k) {
		t.Fatalf("after the first draw: %+v; want %d entries, longest %d", first, len(pairs), paths.PoolSize(k))
	}
	const cycles, perCycle = 4, 5
	for c := 0; c < cycles; c++ {
		for i := 0; i < perCycle; i++ {
			l := links[(c*perCycle+i)%len(links)]
			e.InvalidateLink(l.From, l.To)
		}
		if paths.CacheStats(e).Entries == len(pairs) {
			t.Fatalf("cycle %d dropped no entry", c)
		}
		drawAll()
		if st := paths.CacheStats(e); st != first {
			t.Fatalf("cycle %d: %+v; want %+v", c, st, first)
		}
	}
}

// BenchmarkCacheResident reports the heap a warm path cache retains, in
// KB measured after a GC, once Candidates has drawn every pair of the
// fig11 Cwix instance: k = 5 caches each pair's 20-path pool, k = 0 its
// DefaultMaxPaths shortest, which on Cwix is every valid path.
func BenchmarkCacheResident(b *testing.B) {
	tp, triples := fig11Triples(b, "Cwix")
	for _, k := range []int{5, 0} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var ms runtime.MemStats
			var retained float64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				e := paths.NewPoolEnumerator(tp, k)
				rng := rand.New(rand.NewSource(1))
				for _, tr := range triples {
					if _, err := e.Candidates(rng, tr.src, tr.dst, tr.chain, k, 0); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&ms)
				retained += float64(ms.HeapAlloc) - float64(before)
				runtime.KeepAlive(e)
			}
			b.ReportMetric(retained/float64(b.N)/1024, "retained-KB")
		})
	}
}
