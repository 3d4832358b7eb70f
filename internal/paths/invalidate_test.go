package paths

import (
	"testing"

	"janus/internal/policy"
)

// TestInvalidateLinkSelective checks the two halves of selective
// invalidation: entries whose cached paths cross the removed link are
// dropped and re-enumerated against the mutated topology, while untouched
// entries keep serving the exact cached slice (no re-enumeration).
func TestInvalidateLinkSelective(t *testing.T) {
	tp, ids := fig4(t)
	e := NewEnumerator(tp)
	// fw hangs off s6 on a stick: only Firewall-chain enumerations ever
	// cross the s6-fw link, so removing it must leave plain paths cached.
	plain, err := e.Valid(ids["s1"], ids["s5"], nil)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := e.Valid(ids["s1"], ids["s5"], policy.Chain{policy.Firewall})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 || len(fw) == 0 {
		t.Fatalf("setup: plain=%d fw=%d paths, want both non-empty", len(plain), len(fw))
	}
	if err := tp.RemoveLink(ids["s6"], ids["fw"]); err != nil {
		t.Fatal(err)
	}
	e.InvalidateLink(ids["s6"], ids["fw"])

	// The Firewall entry was dropped: re-enumeration sees fw unreachable.
	fw2, err := e.Valid(ids["s1"], ids["s5"], policy.Chain{policy.Firewall})
	if err != nil {
		t.Fatal(err)
	}
	if len(fw2) != 0 {
		t.Errorf("stale Firewall paths served after link removal: %d", len(fw2))
	}
	// The plain entry was retained: same backing array, not re-enumerated.
	plain2, err := e.Valid(ids["s1"], ids["s5"], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain2) != len(plain) || &plain2[0] != &plain[0] {
		t.Error("untouched entry was re-enumerated instead of served from cache")
	}
}

// TestInvalidateLinkMatchesFresh removes each fabric link in turn and
// checks that an enumerator using InvalidateLink returns exactly what a
// fresh enumerator computes on the mutated topology, for every cached
// (src, dst, chain) triple — selective invalidation must be exact for
// link removals, never just heuristic. A pool enumerator, invalidated the
// same way, must return the fresh enumeration's first PoolSize paths.
// (TestInvalidateLinkPoolMatchesFresh does the same on the fig11
// instances, where entries outgrow the pool.)
func TestInvalidateLinkMatchesFresh(t *testing.T) {
	base, _ := fig4(t)
	type triple struct {
		src, dst string
		chain    policy.Chain
	}
	triples := []triple{
		{"s1", "s5", nil},
		{"s1", "s5", policy.Chain{policy.LightIDS}},
		{"s1", "s5", policy.Chain{policy.Firewall}},
		{"s3", "s6", nil},
		{"s2", "s4", policy.Chain{policy.ByteCounter}},
		{"s7", "s5", policy.Chain{policy.LightIDS, policy.Firewall}},
	}
	for _, l := range base.Links {
		tp, ids := fig4(t)
		e := NewEnumerator(tp)
		pe := NewPoolEnumerator(tp, 1)
		for _, tr := range triples {
			if _, err := e.Valid(ids[tr.src], ids[tr.dst], tr.chain); err != nil {
				t.Fatal(err)
			}
			if _, err := pe.Valid(ids[tr.src], ids[tr.dst], tr.chain); err != nil {
				t.Fatal(err)
			}
		}
		if err := tp.RemoveLink(l.From, l.To); err != nil {
			t.Fatal(err)
		}
		e.InvalidateLink(l.From, l.To)
		pe.InvalidateLink(l.From, l.To)
		fresh := NewEnumerator(tp)
		for _, tr := range triples {
			got, err := e.Valid(ids[tr.src], ids[tr.dst], tr.chain)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Valid(ids[tr.src], ids[tr.dst], tr.chain)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := pe.Valid(ids[tr.src], ids[tr.dst], tr.chain)
			if err != nil {
				t.Fatal(err)
			}
			if n := min(len(want), PoolSize(1)); len(pool) != n {
				t.Fatalf("link %d-%d removed, triple %s->%s %v: pool enumerator gave %d paths, want the fresh first %d",
					l.From, l.To, tr.src, tr.dst, tr.chain, len(pool), n)
			}
			for i := range pool {
				if !pool[i].Equal(want[i]) {
					t.Fatalf("link %d-%d removed, triple %s->%s %v: pool path %d differs: %s vs %s",
						l.From, l.To, tr.src, tr.dst, tr.chain, i, pool[i].Key(), want[i].Key())
				}
			}
			if len(got) != len(want) {
				t.Fatalf("link %d-%d removed, triple %s->%s %v: selective gave %d paths, fresh %d",
					l.From, l.To, tr.src, tr.dst, tr.chain, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("link %d-%d removed, triple %s->%s %v: path %d differs: %s vs %s",
						l.From, l.To, tr.src, tr.dst, tr.chain, i, got[i].Key(), want[i].Key())
				}
			}
		}
	}
}

// TestRetainKeepsOnlyLiveEntries checks that Retain drops exactly the
// entries of triples it is not given, keeps the others serving the same
// slice, and that a dropped triple, drawn again, re-enumerates the paths
// it held.
func TestRetainKeepsOnlyLiveEntries(t *testing.T) {
	tp, ids := fig4(t)
	e := NewPoolEnumerator(tp, 1)
	triples := []struct {
		src, dst string
		chain    policy.Chain
	}{
		{"s1", "s5", nil},
		{"s1", "s5", policy.Chain{policy.Firewall}},
		{"s3", "s6", nil},
		{"s7", "s5", policy.Chain{policy.LightIDS, policy.Firewall}},
	}
	before := make([][]Path, len(triples))
	for i, tr := range triples {
		ps, err := e.Valid(ids[tr.src], ids[tr.dst], tr.chain)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) == 0 {
			t.Fatalf("setup: triple %d has no paths", i)
		}
		before[i] = ps
	}
	live := map[Triple]bool{}
	for _, i := range []int{1, 3} {
		tr := triples[i]
		live[Triple{ids[tr.src], ids[tr.dst], tr.chain.String()}] = true
	}
	e.Retain(live)
	if len(e.cache) != 2 {
		t.Fatalf("Retain kept %d entries, want the 2 live ones", len(e.cache))
	}
	for i, tr := range triples {
		ps, err := e.Valid(ids[tr.src], ids[tr.dst], tr.chain)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != len(before[i]) {
			t.Fatalf("triple %d: %d paths after Retain, want %d", i, len(ps), len(before[i]))
		}
		for j := range ps {
			if !ps[j].Equal(before[i][j]) {
				t.Errorf("triple %d: path %d is %s after Retain, want %s", i, j, ps[j].Key(), before[i][j].Key())
			}
		}
		live, cached := i == 1 || i == 3, &ps[0] == &before[i][0]
		if cached != live {
			t.Errorf("triple %d: served from the cache: %v, want %v", i, cached, live)
		}
	}
	e.Retain(nil)
	if len(e.cache) != 0 {
		t.Fatalf("Retain(nil) kept %d entries", len(e.cache))
	}
}
