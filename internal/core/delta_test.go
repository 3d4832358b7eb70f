package core

import (
	"context"
	"errors"
	"testing"

	"janus/internal/compose"
	"janus/internal/policy"
	"janus/internal/topo"
	"janus/internal/workload"
)

// deltaSetup builds a four-switch fabric carrying four independent
// policies, each with a dedicated src/dst endpoint pair, so single-policy
// events have a provably one-policy footprint.
func deltaSetup(t *testing.T) (*topo.Topology, *compose.Graph, map[string]topo.NodeID) {
	t.Helper()
	tp := topo.NewTopology("delta")
	sw := map[string]topo.NodeID{}
	for _, n := range []string{"a", "b", "c", "d"} {
		sw[n] = tp.AddSwitch(n)
	}
	link := func(x, y string) {
		t.Helper()
		if err := tp.AddLink(sw[x], sw[y], 100); err != nil {
			t.Fatal(err)
		}
	}
	link("a", "b")
	link("b", "c")
	link("c", "d")
	link("a", "c")
	link("b", "d")
	srcAt := []string{"a", "b", "a", "b"}
	dstAt := []string{"c", "d", "d", "c"}
	graphs := make([]*policy.Graph, 4)
	for i := 0; i < 4; i++ {
		src, dst := deltaName("src", i), deltaName("dst", i)
		sl, dl := deltaName("S", i), deltaName("D", i)
		if err := tp.AddEndpoint(src, sw[srcAt[i]], sl); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddEndpoint(dst, sw[dstAt[i]], dl); err != nil {
			t.Fatal(err)
		}
		g := policy.NewGraph(deltaName("g", i))
		g.AddEdge(policy.Edge{Src: sl, Dst: dl, Default: true,
			QoS: policy.QoS{BandwidthMbps: 10}})
		graphs[i] = g
	}
	cg, err := compose.New(nil).Compose(graphs...)
	if err != nil {
		t.Fatal(err)
	}
	return tp, cg, sw
}

func deltaName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func deltaPolicyID(t *testing.T, cg *compose.Graph, i int) int {
	t.Helper()
	p, ok := cg.Lookup(deltaName("S", i), deltaName("D", i))
	if !ok {
		t.Fatalf("policy %d not found in composed graph", i)
	}
	return p.ID
}

func TestDeltaMatchesFullAfterMove(t *testing.T) {
	tp, cg, sw := deltaSetup(t)
	c := mustNew(t, tp, cg, Config{})
	prev, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.MoveEndpoint("src0", sw["d"]); err != nil {
		t.Fatal(err)
	}
	pid0 := deltaPolicyID(t, cg, 0)
	delta, err := c.DeltaReconfigureContext(context.Background(), prev,
		DeltaRequest{Period: 0, Affected: map[int]bool{pid0: true}})
	if err != nil {
		t.Fatalf("delta solve: %v", err)
	}
	full, err := c.ReconfigureAtContext(context.Background(), prev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delta.SatisfiedCount() != full.SatisfiedCount() {
		t.Errorf("delta satisfied %d, full satisfied %d", delta.SatisfiedCount(), full.SatisfiedCount())
	}
	if delta.Delta == nil {
		t.Fatal("delta result missing DeltaStats")
	}
	if delta.Delta.Affected != 1 || delta.Delta.Frozen != 3 {
		t.Errorf("DeltaStats = %+v, want Affected=1 Frozen=3", *delta.Delta)
	}
	// The moved pair's new path starts at the new attach switch.
	if a, ok := delta.AssignmentFor(pid0, "src0", "dst0"); !ok {
		t.Error("moved pair lost its assignment")
	} else if a.Path.Nodes[0] != sw["d"] {
		t.Errorf("moved pair's path starts at %d, want new attach %d", a.Path.Nodes[0], sw["d"])
	}
	// Every unaffected policy's assignments are frozen verbatim.
	for i := 1; i < 4; i++ {
		pid := deltaPolicyID(t, cg, i)
		src, dst := deltaName("src", i), deltaName("dst", i)
		before, ok1 := prev.AssignmentFor(pid, src, dst)
		after, ok2 := delta.AssignmentFor(pid, src, dst)
		if !ok1 || !ok2 || !before.Path.Equal(after.Path) {
			t.Errorf("policy %d should be frozen: before=%v after=%v", pid, before.Path, after.Path)
		}
	}
	// The merged link report never oversubscribes a link.
	for _, l := range delta.Links {
		if l.Reserved > l.Capacity+1e-6 {
			t.Errorf("link %d->%d oversubscribed: %.1f reserved of %.1f", l.From, l.To, l.Reserved, l.Capacity)
		}
	}
}

// TestDeltaSubModelScalesWithChange holds the delta path to "event cost
// scales with the change, not the network" by model size rather than by
// stopwatch: on the fig11 Cwix 50-policy instance, one endpoint move and one
// link failure each re-solve a sub-model with at most a fifth of the full
// re-solve's variables and constraints, and freeze more policies than they
// re-solve. A sub-model built without its scope is the full model and fails
// both ratios.
func TestDeltaSubModelScalesWithChange(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// move relocates policy 0's first source endpoint and seeds the policies
	// whose groups it matches, as the runtime does (fig11 workloads give
	// each policy dedicated endpoints, so that is one policy).
	move := func(t *testing.T, tp *topo.Topology, g *compose.Graph, _ *Result) map[int]bool {
		const ep = "p0-e0"
		cur, ok := tp.EndpointByName(ep)
		if !ok {
			t.Fatalf("endpoint %s missing", ep)
		}
		for _, id := range tp.NodesOfKind(topo.Switch, "") {
			if id == cur.Attach {
				continue
			}
			if err := tp.MoveEndpoint(ep, id); err != nil {
				t.Fatal(err)
			}
			break
		}
		affected := map[int]bool{}
		for _, p := range g.Policies {
			if p.Src.Contains(cur.Labels) || p.Dst.Contains(cur.Labels) {
				affected[p.ID] = true
			}
		}
		return affected
	}
	// linkfail removes the loaded switch-switch link the fewest policies
	// cross (lowest key on ties) — the typical single failure, not a trunk.
	// Like the runtime it seeds nothing: freezeValid widens every policy
	// whose assignment crossed the link.
	linkfail := func(t *testing.T, tp *topo.Topology, _ *compose.Graph, prev *Result) map[int]bool {
		on := map[[2]topo.NodeID]map[int]bool{}
		for _, a := range prev.Assignments {
			for _, l := range a.Path.Links() {
				k := topo.LinkKey(l[0], l[1])
				if on[k] == nil {
					on[k] = map[int]bool{}
				}
				on[k][a.Policy] = true
			}
		}
		var fail [2]topo.NodeID
		least := 0
		for k, pids := range on {
			if tp.Nodes[k[0]].Kind != topo.Switch || tp.Nodes[k[1]].Kind != topo.Switch {
				continue
			}
			tie := len(pids) == least && (k[0] < fail[0] || (k[0] == fail[0] && k[1] < fail[1]))
			if least == 0 || len(pids) < least || tie {
				fail, least = k, len(pids)
			}
		}
		if least == 0 {
			t.Fatal("no loaded switch-switch link to fail")
		}
		if err := tp.RemoveLink(fail[0], fail[1]); err != nil {
			t.Fatal(err)
		}
		return map[int]bool{}
	}
	for name, event := range map[string]func(*testing.T, *topo.Topology, *compose.Graph, *Result) map[int]bool{
		"move": move, "linkfail": linkfail,
	} {
		t.Run(name, func(t *testing.T) {
			w, err := workload.Generate("Cwix", workload.Spec{Policies: 50, EndpointsPerPolicy: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			// The optimality guard is opened wide: on this capacity-tight
			// instance the link failure costs two policies and the default
			// guard would (correctly) send the event to a full solve, but
			// the property held here is the size of the sub-model itself.
			c := mustNew(t, w.Topo, w.Graph, Config{CandidatePaths: 5, Seed: 1, Workers: 1, DeltaMaxSatisfiedDrop: 50})
			prev, err := c.Configure(0)
			if err != nil {
				t.Fatal(err)
			}
			affected := event(t, w.Topo, w.Graph, prev)
			c.InvalidatePaths() // a removed link's cached paths must go; a move has none
			delta, err := c.DeltaReconfigureContext(context.Background(), prev, DeltaRequest{Period: 0, Affected: affected})
			if err != nil {
				t.Fatalf("delta solve: %v", err)
			}
			full, err := c.ReconfigureAtContext(context.Background(), prev, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("sub-model %dv x %dr, full %dv x %dr, %+v", delta.Stats.Variables, delta.Stats.Constraints,
				full.Stats.Variables, full.Stats.Constraints, delta.Delta)
			if delta.Delta == nil || delta.Delta.Affected == 0 || delta.Delta.Affected >= delta.Delta.Frozen {
				t.Errorf("DeltaStats = %+v, want 0 < Affected < Frozen", delta.Delta)
			}
			if 5*delta.Stats.Variables > full.Stats.Variables {
				t.Errorf("sub-model has %d variables, full re-solve %d: want at most a fifth", delta.Stats.Variables, full.Stats.Variables)
			}
			if 5*delta.Stats.Constraints > full.Stats.Constraints {
				t.Errorf("sub-model has %d constraints, full re-solve %d: want at most a fifth", delta.Stats.Constraints, full.Stats.Constraints)
			}
		})
	}
}

func TestDeltaWidensStaleFrozen(t *testing.T) {
	tp, cg, sw := deltaSetup(t)
	c := mustNew(t, tp, cg, Config{})
	prev, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	// Both src0 and src1 move, but the caller only reports policy 0 as
	// affected (a failed earlier event can leave prev out of sync with the
	// topology like this). freezeValid must notice policy 1's paths no
	// longer start at src1's attach switch and widen it into the sub-model.
	if err := tp.MoveEndpoint("src0", sw["d"]); err != nil {
		t.Fatal(err)
	}
	if err := tp.MoveEndpoint("src1", sw["c"]); err != nil {
		t.Fatal(err)
	}
	pid0, pid1 := deltaPolicyID(t, cg, 0), deltaPolicyID(t, cg, 1)
	res, err := c.DeltaReconfigureContext(context.Background(), prev,
		DeltaRequest{Period: 0, Affected: map[int]bool{pid0: true}})
	if err != nil {
		t.Fatalf("delta solve: %v", err)
	}
	if res.Delta.Affected != 2 || res.Delta.Frozen != 2 {
		t.Errorf("DeltaStats = %+v, want the stale policy widened (Affected=2 Frozen=2)", *res.Delta)
	}
	if a, ok := res.AssignmentFor(pid1, "src1", "dst1"); !ok {
		t.Error("widened policy lost its assignment")
	} else if a.Path.Nodes[0] != sw["c"] {
		t.Errorf("widened policy's path starts at %d, want new attach %d", a.Path.Nodes[0], sw["c"])
	}
}

func TestDeltaShareGateFallsBack(t *testing.T) {
	tp, cg, _ := deltaSetup(t)
	c := mustNew(t, tp, cg, Config{})
	prev, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	affected := map[int]bool{}
	for i := 0; i < 4; i++ {
		affected[deltaPolicyID(t, cg, i)] = true
	}
	_, err = c.DeltaReconfigureContext(context.Background(), prev,
		DeltaRequest{Period: 0, Affected: affected})
	if !errors.Is(err, ErrDeltaFallback) {
		t.Fatalf("all-policies delta should trip the affected-share gate, got %v", err)
	}
}

func TestDeltaNilPrevFallsBack(t *testing.T) {
	tp, cg, _ := deltaSetup(t)
	c := mustNew(t, tp, cg, Config{})
	_, err := c.DeltaReconfigureContext(context.Background(), nil, DeltaRequest{})
	if !errors.Is(err, ErrDeltaFallback) {
		t.Fatalf("nil prev should fall back, got %v", err)
	}
}

func TestDeltaEmptyAffectedFreezesEverything(t *testing.T) {
	tp, cg, _ := deltaSetup(t)
	c := mustNew(t, tp, cg, Config{})
	prev, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.DeltaReconfigureContext(context.Background(), prev,
		DeltaRequest{Period: 0, Affected: map[int]bool{}})
	if err != nil {
		t.Fatalf("empty-affected delta: %v", err)
	}
	if res.Delta == nil || res.Delta.Affected != 0 || res.Delta.Frozen != 4 {
		t.Fatalf("DeltaStats = %+v, want Affected=0 Frozen=4", res.Delta)
	}
	if res.SatisfiedCount() != prev.SatisfiedCount() {
		t.Errorf("satisfied drifted %d -> %d with nothing affected", prev.SatisfiedCount(), res.SatisfiedCount())
	}
	if len(res.Assignments) != len(prev.Assignments) {
		t.Errorf("assignment count drifted %d -> %d", len(prev.Assignments), len(res.Assignments))
	}
}

func TestDeltaCancelledContextIsRealError(t *testing.T) {
	tp, cg, sw := deltaSetup(t)
	c := mustNew(t, tp, cg, Config{})
	prev, err := c.Configure(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.MoveEndpoint("src0", sw["d"]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = c.DeltaReconfigureContext(ctx, prev,
		DeltaRequest{Period: 0, Affected: map[int]bool{deltaPolicyID(t, cg, 0): true}})
	if err == nil {
		t.Fatal("cancelled delta solve returned nil error")
	}
	if errors.Is(err, ErrDeltaFallback) {
		t.Fatalf("cancellation must not masquerade as a fallback: %v", err)
	}
}
