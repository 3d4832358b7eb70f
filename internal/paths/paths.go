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
	"math/rand"
	"sort"
	"strconv"

	"janus/internal/policy"
	"janus/internal/topo"
)

// Path is a node sequence through the topology from a source switch to a
// destination switch, possibly traversing NF boxes.
type Path struct {
	Nodes []topo.NodeID
}

// Hops returns the number of links on the path (a latency proxy, §5.7).
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

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
func (p Path) Equal(o Path) bool {
	if len(p.Nodes) != len(o.Nodes) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != o.Nodes[i] {
			return false
		}
	}
	return true
}

// Enumerator enumerates and caches valid paths on one topology.
type Enumerator struct {
	topo *topo.Topology
	// maxPaths bounds enumeration per (src,dst,chain) triple; 0 means the
	// DefaultMaxPaths cap. Enumeration is exhaustive up to the cap.
	maxPaths int
	// maxHops bounds path length; 0 means DefaultMaxHops.
	maxHops int

	// cache maps "src|dst|chain" to the sorted enumeration. linkIndex maps
	// a normalized undirected link to the cache keys whose entries contain
	// a path over it, so a link removal invalidates only the enumerations
	// it can change (InvalidateLink). linkIndex entries may go stale after
	// re-enumeration — a key registered under a link the fresh enumeration
	// no longer crosses — which only makes invalidation conservative,
	// never unsound.
	cache     map[string][]Path
	linkIndex map[[2]topo.NodeID]map[string]bool
}

// Enumeration caps: path counts grow exponentially with network size
// (§5.2), so enumeration must be bounded even for the "all paths" ILP.
const (
	DefaultMaxPaths = 1000
	DefaultMaxHops  = 12
)

// NewEnumerator returns an Enumerator over the topology.
func NewEnumerator(t *topo.Topology) *Enumerator {
	return &Enumerator{
		topo:      t,
		cache:     make(map[string][]Path),
		linkIndex: make(map[[2]topo.NodeID]map[string]bool),
	}
}

// Valid returns all valid paths (up to the enumeration caps) from switch
// src to switch dst that traverse NF boxes of the chain's kinds in order.
// Paths are simple (no repeated node), except that a switch may reappear
// immediately after an NF box it steered traffic into (the NF-on-a-stick
// detour). Results are sorted by hop count then key, so they are
// deterministic, and cached per (src,dst,chain).
func (e *Enumerator) Valid(src, dst topo.NodeID, chain policy.Chain) ([]Path, error) {
	key := fmt.Sprintf("%d|%d|%s", src, dst, chain)
	if got, ok := e.cache[key]; ok {
		return got, nil
	}
	maxPaths := e.maxPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	maxHops := e.maxHops
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	nodes := e.topo.Nodes
	if int(src) >= len(nodes) || int(dst) >= len(nodes) || src < 0 || dst < 0 {
		return nil, fmt.Errorf("paths: src %d or dst %d out of range", src, dst)
	}

	var out []Path
	visited := make([]bool, len(nodes))
	cur := []topo.NodeID{src}
	visited[src] = true

	// DFS over (node, chain progress). An NF box advances the chain when
	// its kind matches the next required waypoint; entering an NF box that
	// is not the next waypoint is disallowed (middleboxes only process
	// traffic steered through them). Paths are simple on switches, with
	// one exception: an NF box attached to a single switch ("NF on a
	// stick") may bounce traffic back to the switch it came from — the
	// standard SDN steering detour — so that switch appears twice.
	var dfs func(n topo.NodeID, progress int)
	dfs = func(n topo.NodeID, progress int) {
		if len(out) >= maxPaths || len(cur)-1 > maxHops {
			return
		}
		if n == dst && progress == len(chain) {
			out = append(out, Path{Nodes: append([]topo.NodeID(nil), cur...)})
			return
		}
		for _, nb := range e.topo.Neighbors(n) {
			// The on-a-stick return hop: from an NF box back to the switch
			// that steered traffic into it.
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

	// Each key is formatted once, not on both sides of every comparison.
	keys := make([]string, len(out))
	for i, p := range out {
		keys[i] = p.Key()
	}
	sort.Sort(byHopsKey{out, keys})
	e.cache[key] = out
	e.indexLinks(key, out)
	return out, nil
}

// byHopsKey sorts paths by hop count, then key; keys[i] is ps[i].Key().
// Keys are unique, so the order is total and any sort gives the same one.
type byHopsKey struct {
	ps   []Path
	keys []string
}

func (s byHopsKey) Len() int { return len(s.ps) }

func (s byHopsKey) Less(i, j int) bool {
	if hi, hj := s.ps[i].Hops(), s.ps[j].Hops(); hi != hj {
		return hi < hj
	}
	return s.keys[i] < s.keys[j]
}

func (s byHopsKey) Swap(i, j int) {
	s.ps[i], s.ps[j] = s.ps[j], s.ps[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// indexLinks registers the links crossed by a cached enumeration so
// InvalidateLink can find the entries a link removal makes stale.
func (e *Enumerator) indexLinks(key string, ps []Path) {
	for _, p := range ps {
		for i := 0; i+1 < len(p.Nodes); i++ {
			k := topo.LinkKey(p.Nodes[i], p.Nodes[i+1])
			m := e.linkIndex[k]
			if m == nil {
				m = make(map[string]bool)
				e.linkIndex[k] = m
			}
			m[key] = true
		}
	}
}

// Candidates returns up to k valid paths for the policy's (src,dst,chain).
// Selection follows the paper's heuristic (§5.2): a random subset of the
// valid paths, which "can provide a high degree of edge-disjointedness".
// The random draw is taken from the shortest 4k valid paths (at least 20):
// exhaustive enumeration on larger topologies surfaces thousands of long
// meandering paths whose capacity cost would swamp any benefit of
// disjointness, and the practical valid-path generators the paper builds
// on (SOL, Merlin) bound path length for the same reason. k <= 0 returns
// all valid paths (the full ILP). When maxHopBudget > 0, paths longer than
// the budget are filtered out first (latency as hop count, §5.7).
func (e *Enumerator) Candidates(rng *rand.Rand, src, dst topo.NodeID, chain policy.Chain, k, maxHopBudget int) ([]Path, error) {
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
	pool := 4 * k
	if pool < 20 {
		pool = 20
	}
	if pool > len(all) {
		pool = len(all)
	}
	// Valid sorts by hop count, so all[:pool] is the shortest portion.
	idx := rng.Perm(pool)[:k]
	sort.Ints(idx)
	out := make([]Path, k)
	for i, j := range idx {
		out[i] = all[j]
	}
	return out, nil
}

// InvalidateCache drops all cached enumerations; call after topology
// changes that can create new paths (link additions): a new link can
// shorten or add paths for any pair, so no cached entry is trustworthy.
func (e *Enumerator) InvalidateCache() {
	e.cache = make(map[string][]Path)
	e.linkIndex = make(map[[2]topo.NodeID]map[string]bool)
}

// InvalidateLink drops only the cached enumerations made stale by
// removing link (a, b). This is exact, not heuristic: an entry is the
// first maxPaths paths of the deterministic DFS (then sorted), and
// removing a link only deletes paths from that DFS sequence. An entry
// none of whose cached paths cross the removed link therefore has no
// crossing path anywhere in its first-maxPaths prefix, so the prefix —
// and the cached entry — is unchanged by the removal. Only use for link
// removals; additions must use InvalidateCache.
func (e *Enumerator) InvalidateLink(a, b topo.NodeID) {
	k := topo.LinkKey(a, b)
	for key := range e.linkIndex[k] {
		delete(e.cache, key)
	}
	delete(e.linkIndex, k)
}
