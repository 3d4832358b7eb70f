package policy

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountRangeContains(t *testing.T) {
	r := CountRange{Lo: 4, Hi: 8}
	for v, want := range map[int]bool{3: false, 4: true, 7: true, 8: false} {
		if got := r.Contains(v); got != want {
			t.Errorf("Contains(%d) = %v, want %v", v, got, want)
		}
	}
	if !FullRange().Contains(0) || !FullRange().Contains(1<<20) {
		t.Error("FullRange should contain everything non-negative")
	}
}

func TestCountRangeIntersect(t *testing.T) {
	// Fig 10a: ">4 and <8 failed connections" is [5,∞) ∩ [0,8) = [5,8).
	ge5 := CountRange{Lo: 5, Hi: Unbounded}
	lt8 := CountRange{Lo: 0, Hi: 8}
	got, ok := ge5.Intersect(lt8)
	if !ok || got.Lo != 5 || got.Hi != 8 {
		t.Errorf("Intersect = %v, %v; want [5,8)", got, ok)
	}
	// ">8 and <4" cannot be satisfied simultaneously (paper's example).
	ge9 := CountRange{Lo: 9, Hi: Unbounded}
	lt4 := CountRange{Lo: 0, Hi: 4}
	if _, ok := ge9.Intersect(lt4); ok {
		t.Error(">8 ∩ <4 should be unsatisfiable")
	}
}

// Property: intersection is commutative and contained in both operands.
func TestCountRangeIntersectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func() bool {
		a := CountRange{Lo: rng.Intn(10), Hi: rng.Intn(12) + 1}
		b := CountRange{Lo: rng.Intn(10), Hi: rng.Intn(12) + 1}
		ab, ok1 := a.Intersect(b)
		ba, ok2 := b.Intersect(a)
		if ok1 != ok2 || (ok1 && ab != ba) {
			return false
		}
		if !ok1 {
			return true
		}
		for v := 0; v < 14; v++ {
			if ab.Contains(v) != (a.Contains(v) && b.Contains(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatefulCondAnd(t *testing.T) {
	// Fig 10a composition: (>4 failed) ∧ (>8 failed) = >8 failed.
	a := WhenAtLeast(FailedConnections, 5)
	b := WhenAtLeast(FailedConnections, 9)
	got, ok := a.And(b)
	if !ok {
		t.Fatal("conjunction should be satisfiable")
	}
	if r := got.Ranges[FailedConnections]; r.Lo != 9 || r.Hi != Unbounded {
		t.Errorf("And = %v, want >=9", r)
	}
	// Disjoint conditions on the same event are unsatisfiable.
	if _, ok := WhenAtLeast(FailedConnections, 9).And(WhenBelow(FailedConnections, 4)); ok {
		t.Error(">8 ∧ <4 should be unsatisfiable")
	}
	// Conditions on different events conjoin independently.
	c, ok := WhenAtLeast(FailedConnections, 5).And(WhenAtLeast(BadSignature, 1))
	if !ok || len(c.Ranges) != 2 {
		t.Errorf("cross-event And = %v, %v; want 2 ranges", c, ok)
	}
	// Always ∧ x = x.
	d, ok := StatefulCond{}.And(a)
	if !ok || d.Key() != a.Key() {
		t.Errorf("StatefulCond{}.And(a) = %v, want %v", d.Key(), a.Key())
	}
}

func TestStatefulCondHolds(t *testing.T) {
	c := WhenAtLeast(FailedConnections, 5)
	if c.Holds(map[Event]int{FailedConnections: 4}) {
		t.Error(">=5 should not hold at 4")
	}
	if !c.Holds(map[Event]int{FailedConnections: 5}) {
		t.Error(">=5 should hold at 5")
	}
	if c.Holds(nil) {
		t.Error(">=5 should not hold with missing counter (treated as 0)")
	}
	if !(StatefulCond{}).Holds(nil) {
		t.Error("Always should hold")
	}
}

func TestStatefulCondKeyDeterministic(t *testing.T) {
	a := StatefulCond{Ranges: map[Event]CountRange{
		FailedConnections: {5, Unbounded},
		BadSignature:      {1, Unbounded},
	}}
	k1 := a.Key()
	for i := 0; i < 10; i++ {
		if a.Key() != k1 {
			t.Fatal("Key should be deterministic across map iteration orders")
		}
	}
	if (StatefulCond{}).Key() != "always" {
		t.Errorf("Always key = %q", StatefulCond{}.Key())
	}
}

func TestTimeWindow(t *testing.T) {
	w := TimeWindow{9, 18}
	if !w.Contains(9) || !w.Contains(17) {
		t.Error("9-18 should contain 9 and 17")
	}
	if w.Contains(18) || w.Contains(8) {
		t.Error("9-18 should not contain 18 or 8 (half-open)")
	}
	// Wrapping window 14-1 (Fig 6).
	wrap := TimeWindow{14, 1}
	if !wrap.Contains(14) || !wrap.Contains(23) || !wrap.Contains(0) {
		t.Error("14-1 should contain 14, 23, 0")
	}
	if wrap.Contains(1) || wrap.Contains(13) {
		t.Error("14-1 should not contain 1 or 13")
	}
	if !AllDay().Contains(0) || !AllDay().IsAllDay() {
		t.Error("AllDay should contain every hour")
	}
	if !(TimeWindow{}).IsAllDay() {
		t.Error("zero window means always-active")
	}
	// Negative and >24 hours are normalized by Contains.
	if !w.Contains(33) { // 33 mod 24 = 9
		t.Error("Contains should normalize hours mod 24")
	}
}

func TestConditionActiveAt(t *testing.T) {
	c := Condition{
		Stateful: WhenAtLeast(FailedConnections, 5),
		Window:   TimeWindow{9, 18},
	}
	if c.IsStatic() {
		t.Error("condition with window+state is not static")
	}
	if !c.ActiveAt(10, map[Event]int{FailedConnections: 6}) {
		t.Error("should be active at 10h with 6 failures")
	}
	if c.ActiveAt(8, map[Event]int{FailedConnections: 6}) {
		t.Error("should be inactive outside the window")
	}
	if c.ActiveAt(10, map[Event]int{FailedConnections: 2}) {
		t.Error("should be inactive below the counter threshold")
	}
	if !(Condition{}).IsStatic() {
		t.Error("zero condition is static")
	}
}

func TestConditionString(t *testing.T) {
	if got := (Condition{}).String(); got != "always" {
		t.Errorf("static condition String = %q", got)
	}
	c := Condition{Window: TimeWindow{9, 18}}
	if got := c.String(); got != "time:9-18" {
		t.Errorf("String = %q, want time:9-18", got)
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := NewGraph("stateful")
	g.Weight = 4
	g.AddEdge(Edge{
		Src: "Clients", Dst: "Web",
		Chain:   Chain{LightIDS},
		Default: true,
	})
	g.AddEdge(Edge{
		Src: "Clients", Dst: "Web",
		Chain: Chain{LightIDS, HeavyIDS},
		Cond:  Condition{Stateful: WhenAtLeast(FailedConnections, 5)},
	})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Name != g.Name || back.Weight != g.Weight ||
		len(back.EPGs) != len(g.EPGs) || len(back.Edges) != len(g.Edges) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, *g)
	}
	if r := back.Edges[1].Cond.Stateful.Ranges[FailedConnections]; r.Lo != 5 {
		t.Errorf("stateful range lost in round trip: %v", r)
	}
}

func TestGraphJSONUnmarshalValidates(t *testing.T) {
	bad := []byte(`{"name":"g","epgs":[{"name":"A","labels":["A"]}],"edges":[{"src":"A","dst":"Missing"}]}`)
	var g Graph
	if err := json.Unmarshal(bad, &g); err == nil {
		t.Error("unmarshal of invalid graph should fail")
	}
}
