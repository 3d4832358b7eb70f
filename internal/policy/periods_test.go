package policy_test

import (
	"slices"
	"testing"

	"janus/internal/compose"
	"janus/internal/policy"
)

// TestGraphPeriods checks the period boundaries that a single policy
// graph's time windows produce once composed; the graph itself keeps no
// copy of that computation.
func TestGraphPeriods(t *testing.T) {
	periods := func(g *policy.Graph) []int {
		t.Helper()
		cg, err := compose.New(nil).Compose(g)
		if err != nil {
			t.Fatal(err)
		}
		return cg.Periods()
	}
	// Fig 6 policy 1: FW at 1-9, L-IDS 9-14, BC 14-1 (wraps).
	g := policy.NewGraph("temporal")
	g.AddEdge(policy.Edge{Src: "Mktg", Dst: "Web", Chain: policy.Chain{policy.Firewall}, Cond: policy.Condition{Window: policy.TimeWindow{Start: 1, End: 9}}})
	g.AddEdge(policy.Edge{Src: "Mktg", Dst: "Web", Chain: policy.Chain{policy.LightIDS}, Cond: policy.Condition{Window: policy.TimeWindow{Start: 9, End: 14}}})
	g.AddEdge(policy.Edge{Src: "Mktg", Dst: "Web", Chain: policy.Chain{policy.ByteCounter}, Cond: policy.Condition{Window: policy.TimeWindow{Start: 14, End: 1}}})
	if got, want := periods(g), []int{0, 1, 9, 14}; !slices.Equal(got, want) {
		t.Errorf("Periods = %v, want %v", got, want)
	}
	static := policy.NewGraph("static")
	static.AddEdge(policy.Edge{Src: "A", Dst: "B"})
	if p := periods(static); !slices.Equal(p, []int{0}) {
		t.Errorf("static Periods = %v, want [0]", p)
	}
}
