package policy

import (
	"reflect"
	"testing"
)

// These tables pin the exact classifier semantics the compiled fast path
// relies on (dataplane.Compiled): every case here is an equivalence class
// the compiler's (proto, port) partition must respect. The earlier
// TestClassifierMatches/Intersect cover the happy paths; this file is the
// edge-case sweep — overlapping port lists, zero classifier vs proto-only,
// intersection asymmetry.

func cls(proto Protocol, ports ...int) Classifier {
	return Classifier{Proto: proto, Ports: ports}
}

func TestClassifierMatchAllTable(t *testing.T) {
	cases := []struct {
		name string
		c    Classifier
		want bool
	}{
		{"zero", Classifier{}, true},
		{"any-spelling", cls(Any), true},
		{"empty-proto-spelling", cls(""), true},
		{"proto-only", cls(TCP), false},
		{"ports-only", cls("", 80), false},
		{"any-with-ports", cls(Any, 80), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.c.MatchAll(); got != tc.want {
				t.Errorf("MatchAll(%v) = %v, want %v", tc.c, got, tc.want)
			}
		})
	}
}

func TestClassifierMatchesEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		c     Classifier
		proto Protocol
		port  int
		want  bool
	}{
		// The zero classifier matches every probe, including protocols the
		// constants don't know and nonsense ports.
		{"zero-matches-unknown-proto", Classifier{}, "icmp", -1, true},
		{"zero-matches-empty-proto", Classifier{}, "", 0, true},
		// Proto-only: any port passes, wrong proto never does.
		{"proto-only-any-port", cls(UDP), UDP, 99999, true},
		{"proto-only-wrong-proto", cls(UDP), TCP, 53, false},
		// The wildcard spellings behave identically as the classifier's
		// proto, but a probe proto of Any is a literal string: a TCP-only
		// classifier does NOT match a probe saying "any".
		{"any-classifier-matches-tcp", cls(Any, 80), TCP, 80, true},
		{"tcp-classifier-vs-any-probe", cls(TCP, 80), Any, 80, false},
		{"empty-classifier-proto-matches-udp", cls("", 53), UDP, 53, true},
		// Port membership, first and last element.
		{"port-list-first", cls(TCP, 80, 443, 8080), TCP, 80, true},
		{"port-list-last", cls(TCP, 80, 443, 8080), TCP, 8080, true},
		{"port-list-miss", cls(TCP, 80, 443, 8080), TCP, 22, false},
		// Unsorted and duplicated port lists still match by membership.
		{"unsorted-ports", cls(TCP, 443, 80, 443), TCP, 443, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.c.Matches(tc.proto, tc.port); got != tc.want {
				t.Errorf("%v.Matches(%q, %d) = %v, want %v", tc.c, tc.proto, tc.port, got, tc.want)
			}
		})
	}
}

func TestClassifierIntersectEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Classifier
		want   Classifier
		wantOK bool
	}{
		// Overlapping port lists intersect to the sorted common subset.
		{"overlapping-ports", cls(TCP, 443, 80, 22), cls(TCP, 8080, 80, 443), cls(TCP, 80, 443), true},
		{"disjoint-ports", cls(TCP, 80), cls(TCP, 443), Classifier{}, false},
		// Zero classifier is the identity: the other side comes back as-is.
		{"zero-vs-proto-only", Classifier{}, cls(UDP), cls(UDP), true},
		{"zero-vs-zero", Classifier{}, Classifier{}, Classifier{}, true},
		// Proto conflict is empty regardless of ports.
		{"proto-conflict", cls(TCP, 80), cls(UDP, 80), Classifier{}, false},
		// Any and "" are interchangeable wildcards on either side.
		{"any-vs-concrete", cls(Any, 80, 443), cls(TCP, 443), cls(TCP, 443), true},
		{"concrete-vs-empty-proto", cls(TCP), cls("", 22), cls(TCP, 22), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tc.a.Intersect(tc.b)
			if ok != tc.wantOK {
				t.Fatalf("Intersect ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				return
			}
			if got.Proto != tc.want.Proto || !reflect.DeepEqual(got.Ports, tc.want.Ports) {
				t.Errorf("%v ∩ %v = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// TestClassifierIntersectAsymmetry pins the one way Intersect is order
// sensitive: when exactly one side lists ports, the result copies THAT
// side's list verbatim (order and duplicates preserved), whereas two
// non-empty lists intersect to a sorted set. Semantically the results are
// equal either way; the compiler must not assume canonical port order.
func TestClassifierIntersectAsymmetry(t *testing.T) {
	unsorted := cls(TCP, 443, 80)
	all := cls(TCP)
	ab, ok1 := unsorted.Intersect(all)
	ba, ok2 := all.Intersect(unsorted)
	if !ok1 || !ok2 {
		t.Fatal("both intersections should be non-empty")
	}
	if !reflect.DeepEqual(ab.Ports, []int{443, 80}) || !reflect.DeepEqual(ba.Ports, []int{443, 80}) {
		t.Errorf("one-sided port list should copy verbatim: got %v and %v", ab.Ports, ba.Ports)
	}
	// Two non-empty lists: same set both ways, sorted.
	x, _ := cls(TCP, 443, 80).Intersect(cls(TCP, 80, 443, 22))
	y, _ := cls(TCP, 80, 443, 22).Intersect(cls(TCP, 443, 80))
	if !reflect.DeepEqual(x.Ports, []int{80, 443}) || !reflect.DeepEqual(y.Ports, []int{80, 443}) {
		t.Errorf("two-sided intersection should be sorted and symmetric: got %v and %v", x.Ports, y.Ports)
	}
	// Matching behavior agrees across the asymmetric representations.
	for _, port := range []int{22, 80, 443} {
		if ab.Matches(TCP, port) != ba.Matches(TCP, port) {
			t.Errorf("asymmetric representations disagree on port %d", port)
		}
	}
}

func TestClassifierCompare(t *testing.T) {
	cases := []struct {
		name string
		a, b Classifier
		want int
	}{
		{"equal-zero", Classifier{}, Classifier{}, 0},
		{"equal-concrete", cls(TCP, 80), cls(TCP, 80), 0},
		// Concrete proto beats wildcard, either spelling.
		{"concrete-before-empty", cls(TCP), cls(""), -1},
		{"concrete-before-any", cls(UDP), cls(Any), -1},
		// Both wildcard spellings have equal specificity; the residual
		// lexicographic proto tiebreak orders "" before "any".
		{"wildcard-spellings-lexicographic", cls(""), cls(Any), -1},
		// Explicit ports beat all-ports; shorter lists beat longer.
		{"ports-before-portless", cls(TCP, 80), cls(TCP), -1},
		{"fewer-ports-first", cls(TCP, 80), cls(TCP, 80, 443), -1},
		// Port specificity outranks the proto tiebreak...
		{"ports-outrank-proto", cls(UDP, 53), cls(TCP), -1},
		// ...then lexicographic proto, then element-wise ports.
		{"proto-lexicographic", cls(TCP, 80), cls(UDP, 80), -1},
		{"ports-elementwise", cls(TCP, 80, 443), cls(TCP, 80, 8080), -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Compare(tc.b); got != tc.want {
				t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
			if got, want := tc.b.Compare(tc.a), -tc.want; got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d (antisymmetry)", tc.b, tc.a, got, want)
			}
		})
	}
}
