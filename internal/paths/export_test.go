package paths

import (
	"fmt"

	"janus/internal/policy"
	"janus/internal/topo"
)

// SetMaxHops lowers the path-length cap of e.
func SetMaxHops(e *Enumerator, n int) { e.maxHops = n }

// CacheStat describes an enumerator's cache: how many entries it holds
// and the length of the longest.
type CacheStat struct{ Entries, Longest int }

// CacheStats returns e's CacheStat.
func CacheStats(e *Enumerator) CacheStat {
	st := CacheStat{Entries: len(e.cache)}
	for _, ps := range e.cache {
		st.Longest = max(st.Longest, len(ps))
	}
	return st
}

// Distance returns the product distance the search of e prunes with from
// (src, no waypoint passed) to (dst, chain done), or -1 when no walk in
// the relaxed product graph reaches it.
func Distance(e *Enumerator, src, dst topo.NodeID, chain policy.Chain) int {
	_, dist := new(product).tables(e.topo, fmt.Sprintf("%d|%s", dst, chain), dst, chain)
	d := dist[src]
	if d == unreachable {
		return -1
	}
	return int(d)
}

// Expanded returns how many search nodes e has expanded.
func Expanded(e *Enumerator) int { return e.expanded }
