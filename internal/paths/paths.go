// Package paths enumerates valid paths between endpoints under waypoint
// (service-chain) constraints, following §5.1 of the Janus paper: "the
// valid path must satisfy the waypoint constraint of the policy. These
// paths can be pre-computed offline."
//
// Like SOL (and §5.2 of the paper), the configurator uses a random subset
// of the valid paths as candidates, which keeps the optimization tractable
// while preserving edge-disjointedness with high probability.
package paths

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"janus/internal/policy"
	"janus/internal/topo"
)

// Path is a node sequence through the topology from a source switch to a
// destination switch, possibly traversing NF boxes.
type Path struct {
	Nodes []topo.NodeID
}

// Hops returns the number of links on the path (a latency proxy, §5.7).
func (p Path) Hops() int { return max(len(p.Nodes)-1, 0) }

// Links returns the directed links the path traverses.
func (p Path) Links() [][2]topo.NodeID {
	if len(p.Nodes) < 2 {
		return nil
	}
	out := make([][2]topo.NodeID, len(p.Nodes)-1)
	for i := 0; i+1 < len(p.Nodes); i++ {
		out[i] = [2]topo.NodeID{p.Nodes[i], p.Nodes[i+1]}
	}
	return out
}

// Key is a canonical string identity of the path: its node IDs in
// decimal, joined by "-".
func (p Path) Key() string {
	b := make([]byte, 0, 4*len(p.Nodes))
	for i, n := range p.Nodes {
		if i > 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}

// Equal reports whether two paths traverse the same node sequence.
func (p Path) Equal(o Path) bool { return slices.Equal(p.Nodes, o.Nodes) }

// Enumerator enumerates and caches valid paths on one topology.
type Enumerator struct {
	topo *topo.Topology
	// maxHops bounds path length; 0 means DefaultMaxHops.
	maxHops int
	// keep is how many sorted paths an entry caches: PoolSize of the k the
	// enumerator was built for.
	keep int

	// cache maps (src, dst, chain) to the first keep paths of the sorted
	// valid paths. Retain drops the entries of triples no caller draws
	// any more, and InvalidateLink those a link removal can change.
	cache map[Triple][]Path
	// prod holds the product tables the search prunes with.
	// InvalidateCache drops it, because a new link can shorten distances
	// and a stale table would cut live branches. InvalidateLink keeps it:
	// it then describes a supergraph of the topology, whose distances
	// still bound every completion from below.
	prod product
	// rank orders node IDs as Key compares them (keyRank).
	rank []int32
	// expanded counts the search nodes expanded, for benchmarks.
	expanded int
}

// Enumeration caps: path counts grow exponentially with network size
// (§5.2), so an entry is bounded even for the "all paths" ILP, which
// takes a pair's DefaultMaxPaths shortest.
const (
	DefaultMaxPaths = 1000
	DefaultMaxHops  = 12
)

// NewEnumerator returns an Enumerator over the topology that caches each
// pair's DefaultMaxPaths shortest valid paths.
func NewEnumerator(t *topo.Topology) *Enumerator {
	return NewPoolEnumerator(t, 0)
}

// NewPoolEnumerator returns an Enumerator that caches, per (src,dst,chain),
// only the candidate pool of a draw of k: the first PoolSize(k) sorted
// paths, which is all Candidates with that k ever reads. k <= 0 caches
// the DefaultMaxPaths shortest, like NewEnumerator. Candidates on it with
// a k whose pool is larger is an error.
func NewPoolEnumerator(t *topo.Topology, k int) *Enumerator {
	return &Enumerator{
		topo:  t,
		keep:  PoolSize(k),
		cache: make(map[Triple][]Path),
	}
}

// PoolSize is how many of a pair's sorted valid paths a draw of k
// candidates chooses from: the shortest 4k, and at least 20. k <= 0 means
// every path, up to the DefaultMaxPaths shortest.
func PoolSize(k int) int {
	if k <= 0 {
		return DefaultMaxPaths
	}
	return max(4*k, 20)
}

// Valid returns the valid paths of at most maxHops hops from switch src
// to switch dst that traverse NF boxes of the chain's kinds in order.
// Paths are simple (no repeated node), except that a switch may reappear
// immediately after an NF box it steered traffic into (the NF-on-a-stick
// detour). Of those paths, sorted by hop count then key, it returns the
// first keep, cached per (src,dst,chain). That entry depends only on the
// topology.
func (e *Enumerator) Valid(src, dst topo.NodeID, chain policy.Chain) ([]Path, error) {
	key := Triple{src, dst, chain.String()}
	if got, ok := e.cache[key]; ok {
		return got, nil
	}
	nodes := e.topo.Nodes
	if int(src) >= len(nodes) || int(dst) >= len(nodes) || src < 0 || dst < 0 {
		return nil, fmt.Errorf("paths: src %d or dst %d out of range", src, dst)
	}
	out := e.search(src, dst, chain, strconv.Itoa(int(dst))+"|"+key.Chain)
	if len(e.rank) != len(nodes) {
		e.rank = keyRank(len(nodes))
	}
	sortPaths(out, e.rank)
	// A copy, so the search's array, and the paths it dropped, are not kept
	// alive.
	out = append([]Path(nil), out[:min(len(out), e.keep)]...)
	e.cache[key] = out
	return out, nil
}

// Triple names a cache entry: a source and a destination switch, and a
// chain as its String.
type Triple struct {
	Src, Dst topo.NodeID
	Chain    string
}

// search returns a superset of Valid's paths from src to dst, unsorted;
// dkey is "dst|chain". It first walks to the pair's product distance h0,
// which no valid path undercuts, so the walk finds every path of h0 hops.
// If it finds keep, none longer can sort into the first keep, and the
// search stops. Otherwise one DFS to maxHops records the longer paths,
// its budget falling to the fewest hops within which keep paths have been
// found, and the paths recorded beyond the final budget are dropped.
func (e *Enumerator) search(src, dst topo.NodeID, chain policy.Chain, dkey string) []Path {
	maxHops := e.maxHops
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	step, dist := e.prod.tables(e.topo, dkey, dst, chain)
	h0 := int(dist[src])
	if h0 == unreachable || h0 > maxHops {
		return nil
	}
	n := len(e.topo.Nodes)
	d := &dfs{
		t:       e.topo,
		dst:     dst,
		chain:   chain,
		step:    step,
		dist:    dist,
		budget:  h0,
		keep:    e.keep,
		byHops:  make([]int, maxHops+1),
		visited: make([]bool, n),
		cur:     make([]topo.NodeID, 1, maxHops+1),
	}
	defer func() { e.expanded += d.expanded }()
	d.cur[0] = src
	d.visited[src] = true
	d.walk(src, 0)
	if len(d.out) < e.keep && h0 < maxHops {
		d.fresh = h0 + 1
		d.budget = maxHops
		d.walk(src, 0)
	}
	kept := d.out[:0]
	for _, p := range d.out {
		if p.Hops() <= d.budget {
			kept = append(kept, p)
		}
	}
	return kept
}

// dfs is one depth-first search over (node, chain progress) from cur[0]
// toward (dst, chain done). An NF box advances the chain when its kind
// matches the next required waypoint; entering an NF box that is not the
// next waypoint is disallowed (middleboxes only process traffic steered
// through them). Paths are simple on switches, with one exception: an NF
// box attached to a single switch ("NF on a stick") may bounce traffic
// back to the switch it came from — the standard SDN steering detour — so
// that switch appears twice.
type dfs struct {
	t     *topo.Topology
	dst   topo.NodeID
	chain policy.Chain
	// step and dist are the product's tables for (dst, chain). A branch
	// whose hops so far plus its distance exceed budget holds no path and
	// is cut, so the search yields the same paths, in the same order, as
	// one without the cut.
	step   []int8
	dist   []uint8
	budget int
	// keep lowers budget to the fewest hops within which keep paths have
	// been found, counted in byHops: a longer path cannot sort into the
	// first keep.
	keep   int
	byHops []int

	// fresh is the fewest hops a path needs to be recorded: shorter ones
	// were recorded by an earlier walk.
	fresh    int
	out      []Path
	visited  []bool
	cur      []topo.NodeID
	expanded int
}

func (d *dfs) walk(n topo.NodeID, progress int) {
	d.expanded++
	if n == d.dst && progress == len(d.chain) {
		d.record()
		return
	}
	// The on-a-stick return hop: from an NF box back to the switch that
	// steered traffic into it.
	back := topo.NodeID(-1)
	if d.t.Nodes[n].Kind == topo.NFBox && len(d.cur) >= 2 {
		back = d.cur[len(d.cur)-2]
	}
	stride := len(d.visited)
	steps := d.step[progress*stride:]
	hops := len(d.cur) // of the path extended by one more node
	for _, nb := range d.t.Neighbors(n) {
		next := progress + int(steps[nb])
		if next < progress || d.visited[nb] && nb != back || hops+int(d.dist[next*stride+int(nb)]) > d.budget {
			continue
		}
		wasVisited := d.visited[nb]
		d.visited[nb] = true
		d.cur = append(d.cur, nb)
		d.walk(nb, next)
		d.cur = d.cur[:len(d.cur)-1]
		if !wasVisited {
			d.visited[nb] = false
		}
	}
}

// record appends the current path and lowers the budget to the fewest
// hops within which keep paths are now known.
func (d *dfs) record() {
	hops := len(d.cur) - 1
	if hops < d.fresh {
		return // an earlier, shallower walk recorded it
	}
	d.out = append(d.out, Path{Nodes: append([]topo.NodeID(nil), d.cur...)})
	d.byHops[hops]++
	found := 0
	for h, c := range d.byHops[:d.budget] {
		if found += c; found >= d.keep {
			d.budget = h
			return
		}
	}
}

// unreachable is the distance of a product state with no walk to the
// goal.
const unreachable = math.MaxUint8

// product is the product of the topology and a chain, whose states are
// (node, chain progress): a move along a link keeps the progress, except
// a move into an NF box, which must be the chain's next kind and
// advances it. The product is relaxed — a walk in it may revisit nodes —
// so a distance in it is a lower bound on the hops of every valid
// completion from its state. It holds the topology's reverse adjacency,
// per chain the step table, and per "dst|chain" the distance table to
// (dst, chain done). State (n, p) is entry p*len(t.Nodes)+n of a table.
type product struct {
	in    [][]topo.NodeID
	steps map[string][]int8
	dist  map[string][]uint8
}

// tables returns the product's tables for (dst, chain), dkey being
// "dst|chain", computed on first use. step holds what entering node n at
// progress p adds to the progress: 0 for a switch, 1 for the NF box of
// the chain's next waypoint, and -1 for any other NF box, which the walk
// may not enter. dist holds the hop distance to the goal,
// found by a breadth-first search backwards from it; distances above 254
// read 254. A topology that gained nodes since the last call rebuilds
// everything.
func (pr *product) tables(t *topo.Topology, dkey string, dst topo.NodeID, chain policy.Chain) ([]int8, []uint8) {
	nodes := t.Nodes
	n := len(nodes)
	if len(pr.in) != n {
		pr.in = make([][]topo.NodeID, n)
		for _, l := range t.Links {
			pr.in[l.To] = append(pr.in[l.To], l.From)
		}
		pr.steps = make(map[string][]int8)
		pr.dist = make(map[string][]uint8)
	}
	ckey := dkey[strings.IndexByte(dkey, '|')+1:]
	step, ok := pr.steps[ckey]
	if !ok {
		step = make([]int8, n*(len(chain)+1))
		for p := 0; p <= len(chain); p++ {
			for m, node := range nodes {
				if node.Kind == topo.NFBox {
					step[p*n+m] = -1
					if p < len(chain) && node.NF == chain[p] {
						step[p*n+m] = 1
					}
				}
			}
		}
		pr.steps[ckey] = step
	}
	if dist, ok := pr.dist[dkey]; ok {
		return step, dist
	}
	dist := make([]uint8, n*(len(chain)+1))
	for i := range dist {
		dist[i] = unreachable
	}
	goal := len(chain)*n + int(dst)
	dist[goal] = 0
	queue := make([]int, 1, len(dist))
	queue[0] = goal
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		m, q := s%n, s/n
		// A move into m reaches progress q from q, or from q-1 when m is
		// the NF box of the chain's q-th waypoint.
		p := q
		if nodes[m].Kind == topo.NFBox {
			if q == 0 || nodes[m].NF != chain[q-1] {
				continue
			}
			p = q - 1
		}
		d := min(dist[s]+1, unreachable-1)
		for _, from := range pr.in[m] {
			if i := p*n + int(from); dist[i] == unreachable {
				dist[i] = d
				queue = append(queue, i)
			}
		}
	}
	pr.dist[dkey] = dist
	return step, dist
}

// sortPaths sorts ps by hop count, then Key. Paths of equal hops
// compare at their first differing node, where Key compares the two IDs'
// decimal strings: rank holds each ID's place in that string order
// (keyRank), so no key is formatted. Keys are unique, so the order is
// total and any sort gives the same one.
func sortPaths(ps []Path, rank []int32) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i].Nodes, ps[j].Nodes
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return rank[a[k]] < rank[b[k]]
			}
		}
		return false
	})
}

// keyRank returns, for each of n node IDs, its place in the string order
// of the IDs in decimal. Where one ID's string is a prefix of another's,
// Key puts '-' (or the key's end) against a digit, which sorts first, as
// the shorter string does.
func keyRank(n int) []int32 {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(i, j int) bool { return strconv.Itoa(ids[i]) < strconv.Itoa(ids[j]) })
	rank := make([]int32, n)
	for r, id := range ids {
		rank[id] = int32(r)
	}
	return rank
}

// Candidates returns up to k valid paths for the policy's (src,dst,chain).
// Selection follows the paper's heuristic (§5.2): a random subset of the
// valid paths, which "can provide a high degree of edge-disjointedness".
// The random draw is taken from the shortest PoolSize(k) valid paths:
// exhaustive enumeration on larger topologies surfaces thousands of long
// meandering paths whose capacity cost would swamp any benefit of
// disjointness, and the practical valid-path generators the paper builds
// on (SOL, Merlin) bound path length for the same reason. k <= 0 returns
// every path of the entry, the pair's DefaultMaxPaths shortest (the full
// ILP). When maxHopBudget > 0, paths longer than the budget are filtered
// out first (latency as hop count, §5.7). A k whose pool is larger than
// the entry is an error.
func (e *Enumerator) Candidates(rng *rand.Rand, src, dst topo.NodeID, chain policy.Chain, k, maxHopBudget int) ([]Path, error) {
	if PoolSize(k) > e.keep {
		return nil, fmt.Errorf("paths: %d candidates need more than the %d paths this enumerator keeps per pair", k, e.keep)
	}
	all, err := e.Valid(src, dst, chain)
	if err != nil {
		return nil, err
	}
	if maxHopBudget > 0 {
		filtered := make([]Path, 0, len(all))
		for _, p := range all {
			if p.Hops() <= maxHopBudget {
				filtered = append(filtered, p)
			}
		}
		all = filtered
	}
	if k <= 0 || k >= len(all) {
		return all, nil
	}
	// Valid sorts by hop count, so all[:pool] is the shortest portion, and
	// the hop-budget filter keeps a prefix of it: an entry truncated to
	// keep filters to the same pool as every valid path would.
	pool := min(PoolSize(k), len(all))
	idx := rng.Perm(pool)[:k]
	sort.Ints(idx)
	out := make([]Path, k)
	for i, j := range idx {
		out[i] = all[j]
	}
	return out, nil
}

// InvalidateCache drops all cached enumerations and product distances;
// call after topology changes that can create new paths (link additions):
// a new link can shorten or add paths for any pair, so no cached entry is
// trustworthy, and it can shorten distances, so a kept table would cut
// branches that now hold paths.
func (e *Enumerator) InvalidateCache() {
	e.cache = make(map[Triple][]Path)
	e.prod = product{}
}

// InvalidateLink drops the cached entries with a path that crosses the
// removed link (a, b), and keeps the rest warm. It scans the cached paths,
// a cost paid only on link removals. What it keeps is exact, because
// removing a link only deletes paths: an entry is the first keep paths of
// the sort of every valid path, and if none crosses the link, the same
// paths still come first in what remains. The product is kept: it then
// describes a supergraph of the topology, so its distances, and those of
// tables built from it later, still bound every completion from below and
// cut nothing that holds a path. Only use for link removals; additions
// must use InvalidateCache.
func (e *Enumerator) InvalidateLink(a, b topo.NodeID) {
	link := topo.LinkKey(a, b)
	for key, ps := range e.cache {
		for _, p := range ps {
			for i := 1; i < len(p.Nodes); i++ {
				if topo.LinkKey(p.Nodes[i-1], p.Nodes[i]) == link {
					delete(e.cache, key)
				}
			}
		}
	}
}

// CacheLen returns how many (src, dst, chain) entries e caches and how
// many product distance tables, one per (dst, chain), its search prunes
// with.
func (e *Enumerator) CacheLen() (entries, tables int) { return len(e.cache), len(e.prod.dist) }

// Retain drops every cached entry whose triple is not live. That is
// exact: an entry depends only on the topology, so a triple that becomes
// live again re-enumerates the paths it held. The product tables stay,
// bounded by the switches times the distinct chains, whatever the pairs.
func (e *Enumerator) Retain(live map[Triple]bool) {
	for t := range e.cache {
		if !live[t] {
			delete(e.cache, t)
		}
	}
}
