package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"janus/internal/policy"
	"janus/internal/topo"
)

// randTableRule draws a rule over a small alphabet, so random rule sets
// collide on slots: few flows and in-ports, and classifiers that include
// protocol "" beside "any", multi-port lists in either order, and a
// repeated port. Queue rates include -0, which prints unlike 0 under %g,
// and two NaNs with different bits, which print alike.
func randTableRule(rng *rand.Rand, nodes []topo.NodeID) Rule {
	protos := []policy.Protocol{"", policy.Any, policy.TCP, policy.UDP}
	ports := [][]int{nil, {80}, {443}, {80, 443}, {443, 80}, {80, 80}}
	queues := []float64{0, math.Copysign(0, -1), 10, 10.5, math.NaN(), otherNaN}
	names := []string{"e0", "e1", "e2"}
	inPort := HostPort
	if rng.Intn(2) == 0 {
		inPort = nodes[rng.Intn(len(nodes))]
	}
	return Rule{
		Switch:    nodes[rng.Intn(len(nodes))],
		Src:       names[rng.Intn(len(names))],
		Dst:       names[rng.Intn(len(names))],
		Match:     policy.Classifier{Proto: protos[rng.Intn(len(protos))], Ports: ports[rng.Intn(len(ports))]},
		NextHop:   nodes[rng.Intn(len(nodes))],
		InPort:    inPort,
		QueueMbps: queues[rng.Intn(len(queues))],
		Priority:  rng.Intn(2),
	}
}

// otherNaN is a NaN whose bits differ from math.NaN()'s.
var otherNaN = math.Float64frombits(math.Float64bits(math.NaN()) + 1)

func randTableRules(rng *rand.Rand, nodes []topo.NodeID, max int) []Rule {
	out := make([]Rule, rng.Intn(max+1))
	for i := range out {
		out[i] = randTableRule(rng, nodes)
	}
	return out
}

// referencePlan is PlanUpdate as it was while each table was a map keyed
// by Rule.Key: copy every installed rule into one such map, key the target
// the same way (the later of two rules on one key wins), and compare the
// rules on a key by their formatted actions.
func referencePlan(installed, target []Rule) ([]UpdateOp, CompileResult) {
	action := func(r Rule) string { return fmt.Sprintf("%d|%g|%d", r.NextHop, r.QueueMbps, r.Priority) }
	current := map[string]Rule{}
	for _, r := range installed {
		current[r.Key()] = r
	}
	next := map[string]Rule{}
	for _, r := range target {
		next[r.Key()] = r
	}
	var ops []UpdateOp
	var rep CompileResult
	var keys []string
	for k := range next {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := next[k]
		old, exists := current[k]
		if exists && action(old) == action(r) {
			continue
		}
		if exists {
			rep.RulesUpdated++
		} else {
			rep.RulesInstalled++
		}
		phase := 1
		if r.InPort == HostPort {
			phase = 2
		}
		ops = append(ops, UpdateOp{Phase: phase, Install: true, Rule: r})
	}
	var stale []string
	for k := range current {
		if _, keep := next[k]; !keep {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		rep.RulesRemoved++
		ops = append(ops, UpdateOp{Phase: 3, Rule: current[k]})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Phase < ops[j].Phase })
	all := map[topo.NodeID]bool{}
	for _, op := range ops {
		all[op.Rule.Switch] = true
	}
	rep.SwitchesTouched = len(all)
	return ops, rep
}

// formatOps renders ops field by field; %v keeps NaN, -0, protocol ""
// against "any" and port order apart, where reflect.DeepEqual would call
// NaN unequal to itself.
func formatOps(ops []UpdateOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = fmt.Sprintf("%d %v %+v", op.Phase, op.Install, op.Rule)
	}
	return out
}

// TestPlanUpdateMatchesKeyedDiff holds PlanUpdate to the string-keyed diff
// it replaced: the same ops in the same order, the same switches per phase
// and the same report, on seeded random installed and target rule sets and
// on the cases where slot identity is subtle.
func TestPlanUpdateMatchesKeyedDiff(t *testing.T) {
	tp, ids := diamond(t)
	nodes := []topo.NodeID{ids["a"], ids["top"], ids["bottom"], ids["b"]}
	tcp := func(ports ...int) policy.Classifier { return policy.Classifier{Proto: policy.TCP, Ports: ports} }
	base := Rule{Switch: ids["a"], Src: "e0", Dst: "e1", NextHop: ids["top"], InPort: HostPort, QueueMbps: 10, Priority: 1}
	with := func(m policy.Classifier, next topo.NodeID) Rule {
		r := base
		r.Match, r.NextHop = m, next
		return r
	}
	queued := func(m policy.Classifier, q float64) Rule {
		r := with(m, ids["top"])
		r.QueueMbps = q
		return r
	}
	type planCase struct {
		name              string
		installed, target []Rule
		crash             []topo.NodeID
	}
	cases := []planCase{
		{name: "one slot twice in the target, later wins",
			installed: []Rule{with(tcp(80), ids["top"])},
			target:    []Rule{with(tcp(80), ids["bottom"]), with(tcp(80), ids["top"])}},
		{name: "one fresh slot twice in the target",
			target: []Rule{with(tcp(80), ids["bottom"]), with(tcp(80), ids["top"])}},
		{name: "protocol empty against any",
			installed: []Rule{with(policy.Classifier{Ports: []int{80}}, ids["top"]), with(policy.Classifier{}, ids["top"])},
			target:    []Rule{with(policy.Classifier{Proto: policy.Any, Ports: []int{80}}, ids["bottom"]), with(policy.Classifier{Proto: policy.Any}, ids["top"])}},
		{name: "multi-port classifiers in either order",
			installed: []Rule{with(tcp(80, 443), ids["top"]), with(tcp(80, 80), ids["top"])},
			target:    []Rule{with(tcp(443, 80), ids["top"]), with(tcp(80, 443), ids["bottom"]), with(tcp(80), ids["top"])}},
		{name: "protocols that render like other classifiers",
			installed: []Rule{with(policy.Classifier{}, ids["top"]), with(tcp(80, 81), ids["top"])},
			target:    []Rule{with(policy.Classifier{Proto: "*"}, ids["bottom"]), with(policy.Classifier{Proto: "tcp/80,tcp", Ports: []int{81}}, ids["bottom"])}},
		{name: "queue rates as %g prints them",
			installed: []Rule{queued(tcp(80), math.NaN()), queued(tcp(443), 0)},
			target:    []Rule{queued(tcp(80), otherNaN), queued(tcp(443), math.Copysign(0, -1))}},
		{name: "empty target",
			installed: []Rule{with(tcp(80), ids["top"]), with(policy.Classifier{}, ids["bottom"])}},
		{name: "crashed switch",
			installed: rulesFor(t, tp, ids["a"], ids["top"], ids["b"]),
			target:    rulesFor(t, tp, ids["a"], ids["bottom"], ids["b"]),
			crash:     []topo.NodeID{ids["top"]}},
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 300; i++ {
		c := planCase{
			name:      fmt.Sprintf("seeded %d", i),
			installed: randTableRules(rng, nodes, 24),
			target:    randTableRules(rng, nodes, 24),
		}
		// Targets that reuse installed slots exercise the update path.
		for _, r := range c.installed {
			if rng.Intn(2) == 0 {
				c.target = append(c.target, r)
			}
		}
		rng.Shuffle(len(c.target), func(a, b int) { c.target[a], c.target[b] = c.target[b], c.target[a] })
		if rng.Intn(4) == 0 {
			c.crash = []topo.NodeID{nodes[rng.Intn(len(nodes))]}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		n := NewNetwork(tp)
		if err := n.ApplyPlan(n.PlanUpdate(c.installed)); err != nil {
			t.Fatalf("%s: installing: %v", c.name, err)
		}
		for _, id := range c.crash {
			if err := n.CrashSwitch(id); err != nil {
				t.Fatal(err)
			}
		}
		plan := n.PlanUpdate(c.target)
		ops, rep := referencePlan(n.AllRules(), c.target)
		got, want := formatOps(plan.Ops), formatOps(ops)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: ops differ\n got %q\nwant %q", c.name, got, want)
		}
		if plan.Report() != rep {
			t.Fatalf("%s: report %+v, want %+v", c.name, plan.Report(), rep)
		}
	}
}

// refTables is a model of the flow tables as maps keyed by Rule.Key, with
// the transactional semantics of ApplyPhase and RollbackPlan.
type refTables struct {
	tables  map[topo.NodeID]map[string]Rule
	crashed map[topo.NodeID]bool
	undo    []refUndo
}

type refUndo struct {
	sw      topo.NodeID
	key     string
	prev    Rule
	existed bool
}

// applyPhase mirrors a successful ApplyPhase; a failed one changes
// nothing, so the model is not told of it.
func (m *refTables) applyPhase(plan *UpdatePlan, phase int) {
	for _, op := range plan.Ops {
		if op.Phase != phase {
			continue
		}
		tab, k := m.tables[op.Rule.Switch], op.Rule.Key()
		prev, existed := tab[k]
		m.undo = append(m.undo, refUndo{op.Rule.Switch, k, prev, existed})
		if op.Install {
			tab[k] = op.Rule
		} else {
			delete(tab, k)
		}
	}
}

func (m *refTables) rollback() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		e := m.undo[i]
		if m.crashed[e.sw] {
			continue
		}
		if e.existed {
			m.tables[e.sw][e.key] = e.prev
		} else {
			delete(m.tables[e.sw], e.key)
		}
	}
	m.undo = nil
}

// TestTablesMatchKeyedModelUnderFaults drives seeded random sequences of
// plans, phases failing under a FailRate fault plan, rollbacks, switch
// crashes and restores, and after every step holds each switch's RulesAt
// and the network's RuleCount to a model keyed by Rule.Key.
func TestTablesMatchKeyedModelUnderFaults(t *testing.T) {
	tp, ids := diamond(t)
	nodes := []topo.NodeID{ids["a"], ids["top"], ids["bottom"], ids["b"]}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork(tp)
		n.InjectFaults(FaultPlan{
			Seed:          seed,
			Default:       SwitchFaults{FailRate: 0.1},
			CrashAfterOps: map[topo.NodeID]int{nodes[rng.Intn(len(nodes))]: 5 + rng.Intn(60)},
		})
		m := &refTables{tables: map[topo.NodeID]map[string]Rule{}, crashed: map[topo.NodeID]bool{}}
		for _, id := range nodes {
			m.tables[id] = map[string]Rule{}
		}
		var plan *UpdatePlan
		var failed, applied int
		for step := 0; step < 200; step++ {
			var what string
			switch k := rng.Intn(10); {
			case plan == nil || plan.applied == 3 && k < 5:
				if plan != nil {
					m.undo = nil // the applied plan is kept
				}
				target := randTableRules(rng, nodes, 16)
				for _, r := range n.AllRules() {
					if rng.Intn(3) > 0 {
						target = append(target, r)
					}
				}
				rng.Shuffle(len(target), func(a, b int) { target[a], target[b] = target[b], target[a] })
				plan = n.PlanUpdate(target)
				what = "plan"
			case k < 6 && plan.applied < 3:
				phase := plan.applied + 1
				what = fmt.Sprintf("apply phase %d", phase)
				if err := n.ApplyPhase(plan, phase); err != nil {
					failed++
					what += " (failed)"
					// A scheduled crash fails its op and wipes the switch.
					for _, id := range n.CrashedSwitches() {
						if !m.crashed[id] {
							m.tables[id] = map[string]Rule{}
							m.crashed[id] = true
						}
					}
				} else {
					applied++
					m.applyPhase(plan, phase)
				}
			case k < 8:
				n.RollbackPlan(plan)
				m.rollback()
				plan = nil
				what = "rollback"
			case k == 8:
				id := nodes[rng.Intn(len(nodes))]
				if err := n.CrashSwitch(id); err != nil {
					t.Fatal(err)
				}
				m.tables[id] = map[string]Rule{}
				m.crashed[id] = true
				what = fmt.Sprintf("crash %d", id)
			default:
				id := nodes[rng.Intn(len(nodes))]
				if err := n.RestoreSwitch(id); err != nil {
					t.Fatal(err)
				}
				delete(m.crashed, id)
				what = fmt.Sprintf("restore %d", id)
			}
			total := 0
			for _, id := range nodes {
				want := make([]Rule, 0, len(m.tables[id]))
				for _, r := range m.tables[id] {
					want = append(want, r)
				}
				sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
				total += len(want)
				if got := n.RulesAt(id); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Fatalf("seed %d step %d (%s): switch %d holds\n%+v\nwant %+v", seed, step, what, id, got, want)
				}
			}
			if n.RuleCount() != total {
				t.Fatalf("seed %d step %d (%s): RuleCount %d, want %d", seed, step, what, n.RuleCount(), total)
			}
		}
		if failed == 0 || applied == 0 {
			t.Fatalf("seed %d: %d phases applied, %d failed: the sequence misses a path", seed, applied, failed)
		}
	}
}
