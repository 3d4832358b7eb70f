package paths

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"janus/internal/policy"
	"janus/internal/topo"
)

// fig4 builds the Fig 4 example topology: seven switches in a ring-like
// arrangement with two L-IDS boxes, a BC and an FW, all links 100 Mbps.
//
// Paper paths: m1(s1)->w1(s5) via L-IDS has path1 s1-s3-s4-s5 (L-IDS on
// s3-s4) and path2 s1-s7-s2-s6-s5 (L-IDS on s7-s2).
func fig4(t *testing.T) (*topo.Topology, map[string]topo.NodeID) {
	t.Helper()
	tp := topo.NewTopology("fig4")
	ids := map[string]topo.NodeID{}
	for _, n := range []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7"} {
		ids[n] = tp.AddSwitch(n)
	}
	ids["lids1"] = tp.AddNF("lids1", policy.LightIDS) // between s3 and s4
	ids["lids2"] = tp.AddNF("lids2", policy.LightIDS) // between s7 and s2
	ids["bc"] = tp.AddNF("bc", policy.ByteCounter)    // between s1 and s3
	ids["fw"] = tp.AddNF("fw", policy.Firewall)       // off s6
	add := func(a, b string) {
		if err := tp.AddLink(ids[a], ids[b], 100); err != nil {
			t.Fatal(err)
		}
	}
	// Core: s1-s3 via BC is a parallel NF path; plain s1-s3 also exists.
	add("s1", "s3")
	add("s1", "bc")
	add("bc", "s3")
	add("s3", "lids1")
	add("lids1", "s4")
	add("s3", "s4")
	add("s4", "s5")
	add("s1", "s7")
	add("s7", "lids2")
	add("lids2", "s2")
	add("s7", "s2")
	add("s2", "s6")
	add("s6", "s5")
	add("s6", "fw")
	return tp, ids
}

func TestValidWaypointPaths(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	got, err := e.Valid(ids["s1"], ids["s5"], policy.Chain{policy.LightIDS})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no valid L-IDS paths from s1 to s5")
	}
	// Every returned path must traverse exactly one L-IDS box and reach s5.
	for _, p := range got {
		nIDS := 0
		for _, n := range p.Nodes {
			if tp.Nodes[n].Kind == topo.NFBox {
				if tp.Nodes[n].NF != policy.LightIDS {
					t.Errorf("path %s traverses non-chain NF %s", p.Key(), tp.Nodes[n].NF)
				}
				nIDS++
			}
		}
		if nIDS != 1 {
			t.Errorf("path %s traverses %d L-IDS boxes, want 1", p.Key(), nIDS)
		}
		if p.Nodes[0] != ids["s1"] || p.Nodes[len(p.Nodes)-1] != ids["s5"] {
			t.Errorf("path %s does not go s1..s5", p.Key())
		}
	}
	// The two paper paths must both be found.
	want1 := Path{Nodes: []topo.NodeID{ids["s1"], ids["s3"], ids["lids1"], ids["s4"], ids["s5"]}}
	want2 := Path{Nodes: []topo.NodeID{ids["s1"], ids["s7"], ids["lids2"], ids["s2"], ids["s6"], ids["s5"]}}
	found1, found2 := false, false
	for _, p := range got {
		if p.Equal(want1) {
			found1 = true
		}
		if p.Equal(want2) {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Errorf("paper paths missing: path1=%v path2=%v in %d paths", found1, found2, len(got))
	}
}

func TestValidNoChainSkipsNFs(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	got, err := e.Valid(ids["s1"], ids["s5"], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		for _, n := range p.Nodes {
			if tp.Nodes[n].Kind == topo.NFBox {
				t.Errorf("chainless path %s traverses NF box", p.Key())
			}
		}
	}
	if len(got) == 0 {
		t.Fatal("expected plain paths from s1 to s5")
	}
}

func TestValidChainOrdering(t *testing.T) {
	// Chain BC -> L-IDS must traverse BC before L-IDS.
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	got, err := e.Valid(ids["s1"], ids["s5"], policy.Chain{policy.ByteCounter, policy.LightIDS})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("expected BC->L-IDS paths")
	}
	for _, p := range got {
		sawBC := false
		for _, n := range p.Nodes {
			if tp.Nodes[n].Kind != topo.NFBox {
				continue
			}
			switch tp.Nodes[n].NF {
			case policy.ByteCounter:
				sawBC = true
			case policy.LightIDS:
				if !sawBC {
					t.Errorf("path %s hits L-IDS before BC", p.Key())
				}
			}
		}
	}
	// Reverse chain has no valid path in this topology (L-IDS boxes sit
	// before s5 but BC only near s1), as long as hop caps bite. The
	// enumerator must return an empty slice, not an error.
	rev, err := e.Valid(ids["s1"], ids["s5"], policy.Chain{policy.LightIDS, policy.ByteCounter})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rev {
		order := []policy.NFKind{}
		for _, n := range p.Nodes {
			if tp.Nodes[n].Kind == topo.NFBox {
				order = append(order, tp.Nodes[n].NF)
			}
		}
		if len(order) != 2 || order[0] != policy.LightIDS || order[1] != policy.ByteCounter {
			t.Errorf("reverse chain path %s has NF order %v", p.Key(), order)
		}
	}
}

func TestUnreachableChain(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	got, err := e.Valid(ids["s1"], ids["s5"], policy.Chain{policy.DPI})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("no DPI box exists; got %d paths", len(got))
	}
}

// assertQuasiSimple checks that a path repeats a node only in the
// NF-on-a-stick pattern: a switch directly before and after an NF box.
func assertQuasiSimple(t *testing.T, tp *topo.Topology, p Path) {
	t.Helper()
	count := map[topo.NodeID]int{}
	for _, n := range p.Nodes {
		count[n]++
	}
	for i, n := range p.Nodes {
		if count[n] <= 1 {
			continue
		}
		if tp.Nodes[n].Kind != topo.Switch {
			t.Errorf("path %s repeats non-switch node %d", p.Key(), n)
			continue
		}
		// Every non-first occurrence must directly follow an NF box that
		// the same switch steered into.
		if i >= 2 && p.Nodes[i-2] == n && tp.Nodes[p.Nodes[i-1]].Kind == topo.NFBox {
			continue // the bounce-back occurrence
		}
		// The first occurrence is fine.
	}
}

func TestPathsAreQuasiSimple(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	got, err := e.Valid(ids["s1"], ids["s5"], policy.Chain{policy.LightIDS})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		assertQuasiSimple(t, tp, p)
	}
}

func TestOnAStickNF(t *testing.T) {
	// A firewall attached to a single switch must still be reachable: the
	// path bounces s->fw->s.
	tp := topo.NewTopology("stick")
	a := tp.AddSwitch("a")
	b := tp.AddSwitch("b")
	fw := tp.AddNF("fw", policy.Firewall)
	if err := tp.AddLink(a, b, 100); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(a, fw, 100); err != nil {
		t.Fatal(err)
	}
	e := NewEnumerator(tp)
	got, err := e.Valid(a, b, policy.Chain{policy.Firewall})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d paths, want 1 (the bounce path)", len(got))
	}
	want := Path{Nodes: []topo.NodeID{a, fw, a, b}}
	if !got[0].Equal(want) {
		t.Errorf("path = %s, want %s", got[0].Key(), want.Key())
	}
	// A stick NF on the destination side works too.
	tp2 := topo.NewTopology("stick2")
	x := tp2.AddSwitch("x")
	y := tp2.AddSwitch("y")
	fw2 := tp2.AddNF("fw", policy.Firewall)
	if err := tp2.AddLink(x, y, 100); err != nil {
		t.Fatal(err)
	}
	if err := tp2.AddLink(y, fw2, 100); err != nil {
		t.Fatal(err)
	}
	e2 := NewEnumerator(tp2)
	got2, err := e2.Valid(x, y, policy.Chain{policy.Firewall})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || !got2[0].Equal(Path{Nodes: []topo.NodeID{x, y, fw2, y}}) {
		t.Errorf("dst-side stick paths = %v", got2)
	}
}

func TestCandidatesSubset(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	all, err := e.Valid(ids["s1"], ids["s5"], nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	k := 2
	got, err := e.Candidates(rng, ids["s1"], ids["s5"], nil, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) > k && len(got) != k {
		t.Fatalf("Candidates returned %d paths, want %d", len(got), k)
	}
	// Every candidate must be one of the valid paths.
	for _, c := range got {
		found := false
		for _, p := range all {
			if c.Equal(p) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("candidate %s not among valid paths", c.Key())
		}
	}
	// k <= 0 means all paths.
	gotAll, err := e.Candidates(rng, ids["s1"], ids["s5"], nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAll) != len(all) {
		t.Errorf("k=0 returned %d, want all %d", len(gotAll), len(all))
	}
}

func TestCandidatesHopBudget(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	rng := rand.New(rand.NewSource(1))
	got, err := e.Candidates(rng, ids["s1"], ids["s5"], nil, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p.Hops() > 3 {
			t.Errorf("path %s exceeds hop budget: %d hops", p.Key(), p.Hops())
		}
	}
}

// TestMaxPathsCap lowers a k = 0 enumerator's keep below a pair's path
// count: the entry must hold the pair's shortest paths. On the 5-switch
// topology a depth-first search from switch 0 takes the direct link to 4
// last, so a search stopped at two paths would miss the 1-hop one.
func TestMaxPathsCap(t *testing.T) {
	fig, ids := fig4(t)
	five := topo.NewTopology("five")
	for range 5 {
		five.AddSwitch("")
	}
	for _, l := range [][2]topo.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {0, 4}} {
		if err := five.AddLink(l[0], l[1], 100); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		tp       *topo.Topology
		src, dst topo.NodeID
		keep     int
		want     string
	}{
		{fig, ids["s1"], ids["s5"], 1, "0-2-3-4"},
		{five, 0, 4, 2, "0-4 0-1-3-4"},
	} {
		e := NewEnumerator(tc.tp)
		e.keep = tc.keep
		got, err := e.Valid(tc.src, tc.dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(got))
		for i, p := range got {
			keys[i] = p.Key()
		}
		if s := strings.Join(keys, " "); s != tc.want {
			t.Errorf("%s %d->%d keep=%d: Valid = %s, want %s", tc.tp.Name, tc.src, tc.dst, tc.keep, s, tc.want)
		}
	}
}

func TestCacheInvalidation(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	before, _ := e.Valid(ids["s1"], ids["s5"], nil)
	// Add a new parallel switch path; cache must be stale until invalidated.
	x := tp.AddSwitch("x")
	if err := tp.AddLink(ids["s1"], x, 100); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(x, ids["s5"], 100); err != nil {
		t.Fatal(err)
	}
	cached, _ := e.Valid(ids["s1"], ids["s5"], nil)
	if len(cached) != len(before) {
		t.Error("cache should serve stale results until invalidated")
	}
	e.InvalidateCache()
	after, _ := e.Valid(ids["s1"], ids["s5"], nil)
	if len(after) != len(before)+1 {
		t.Errorf("after invalidate: %d paths, want %d", len(after), len(before)+1)
	}
}

func TestOutOfRangeNodes(t *testing.T) {
	tp, _ := fig4(t)
	e := NewEnumerator(tp)
	if _, err := e.Valid(topo.NodeID(99), 0, nil); err == nil {
		t.Error("out-of-range src should error")
	}
}

func TestPathAccessors(t *testing.T) {
	p := Path{Nodes: []topo.NodeID{1, 2, 3}}
	if p.Hops() != 2 {
		t.Errorf("Hops = %d, want 2", p.Hops())
	}
	links := p.Links()
	if len(links) != 2 || links[0] != [2]topo.NodeID{1, 2} || links[1] != [2]topo.NodeID{2, 3} {
		t.Errorf("Links = %v", links)
	}
	if p.Key() != "1-2-3" {
		t.Errorf("Key = %q", p.Key())
	}
	if (Path{}).Hops() != 0 || (Path{}).Links() != nil {
		t.Error("empty path accessors")
	}
}

// Property: on random synthetic topologies, all enumerated paths are simple,
// start/end correctly, and respect the hop cap.
func TestValidProperties(t *testing.T) {
	prop := func(seed int64) bool {
		tp := topo.Synthetic("p", 15, seed)
		e := NewEnumerator(tp)
		e.maxHops = 6
		got, err := e.Valid(0, 10, nil)
		if err != nil {
			return false
		}
		for _, p := range got {
			if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 10 {
				return false
			}
			if p.Hops() > 6 {
				return false
			}
			seen := map[topo.NodeID]bool{}
			for _, n := range p.Nodes {
				if seen[n] {
					return false
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
