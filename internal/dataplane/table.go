package dataplane

import (
	"math"
	"sort"
	"strings"

	"janus/internal/policy"
	"janus/internal/topo"
)

// flowKey names one (src, dst) endpoint flow.
type flowKey struct{ src, dst string }

// slot is one rule of a flow at one switch. It carries only what can
// differ between that flow's rules there; the switch is the table's and the
// flow is the map key's.
type slot struct {
	InPort    topo.NodeID
	Match     policy.Classifier
	NextHop   topo.NodeID
	QueueMbps float64
	Priority  int
}

func slotOf(r Rule) slot {
	return slot{InPort: r.InPort, Match: r.Match, NextHop: r.NextHop, QueueMbps: r.QueueMbps, Priority: r.Priority}
}

// rule rebuilds the Rule the slot holds for flow k on switch sw.
func (s *slot) rule(sw topo.NodeID, k flowKey) Rule {
	return Rule{
		Switch: sw, Src: k.src, Dst: k.dst, Match: s.Match, NextHop: s.NextHop,
		InPort: s.InPort, QueueMbps: s.QueueMbps, Priority: s.Priority,
	}
}

// sameAction reports whether installing r over s would change nothing the
// switch does: the same next hop, queue rate and priority. Queue rates
// compare as %g prints them, so -0 differs from 0 and every NaN is alike.
func (s *slot) sameAction(r Rule) bool {
	return s.NextHop == r.NextHop && s.Priority == r.Priority &&
		(math.Float64bits(s.QueueMbps) == math.Float64bits(r.QueueMbps) ||
			math.IsNaN(s.QueueMbps) && math.IsNaN(r.QueueMbps))
}

// sameMatch reports whether a and b render identically under
// Classifier.String without formatting either: both match all, or the
// same protocol ("" and "any" alike) with the same ports in the same
// order. A protocol holding one of String's separators could render like a
// different classifier, so those are compared as strings.
func sameMatch(a, b policy.Classifier) bool {
	if strings.ContainsAny(string(a.Proto), "*/,") || strings.ContainsAny(string(b.Proto), "*/,") {
		return a.String() == b.String()
	}
	if a.MatchAll() || b.MatchAll() {
		return a.MatchAll() && b.MatchAll()
	}
	if a.Proto != b.Proto && !(isWildcard(a.Proto) && isWildcard(b.Proto)) {
		return false
	}
	if len(a.Ports) != len(b.Ports) {
		return false
	}
	for i := range a.Ports {
		if a.Ports[i] != b.Ports[i] {
			return false
		}
	}
	return true
}

func isWildcard(p policy.Protocol) bool { return p == "" || p == policy.Any }

// FlowTable is the rule set of one switch, indexed by flow: flows maps a
// (src, dst) pair to that flow's rule slots on this switch, so matching a
// hop, comparing a planned rule and editing the table each read one flow's
// few slots instead of the whole table. No formatted key is stored. Two
// rules share a slot exactly when Rule.Key says so: the same InPort, and a
// Match that Classifier.String renders identically — protocol "" and "any"
// are one slot, and port order counts. A slot's order within its flow
// carries no meaning: matchRule picks by priority and Classifier.Compare.
type FlowTable struct {
	flows map[flowKey][]slot
}

func newFlowTable() FlowTable { return FlowTable{flows: map[flowKey][]slot{}} }

// find returns the slot of flow k that a rule with this InPort and Match
// occupies, or nil.
func (t *FlowTable) find(k flowKey, inPort topo.NodeID, m policy.Classifier) *slot {
	ss := t.flows[k]
	for i := range ss {
		if ss[i].InPort == inPort && sameMatch(ss[i].Match, m) {
			return &ss[i]
		}
	}
	return nil
}

// put writes s into its slot of flow k and returns what the slot held.
func (t *FlowTable) put(k flowKey, s slot) (prev slot, existed bool) {
	if p := t.find(k, s.InPort, s.Match); p != nil {
		prev, *p = *p, s
		return prev, true
	}
	t.flows[k] = append(t.flows[k], s)
	return slot{}, false
}

// remove empties the slot of flow k that s occupies and returns what it
// held.
func (t *FlowTable) remove(k flowKey, s slot) (prev slot, existed bool) {
	ss := t.flows[k]
	for i := range ss {
		if ss[i].InPort != s.InPort || !sameMatch(ss[i].Match, s.Match) {
			continue
		}
		prev = ss[i]
		last := len(ss) - 1
		if last == 0 {
			delete(t.flows, k)
			return prev, true
		}
		ss[i] = ss[last]
		ss[last] = slot{}
		t.flows[k] = ss[:last]
		return prev, true
	}
	return slot{}, false
}

// ruleCount returns the number of rules in the table.
func (t *FlowTable) ruleCount() int {
	total := 0
	for _, ss := range t.flows {
		total += len(ss)
	}
	return total
}

// appendRules appends the table's rules, unordered, as installed on
// switch sw.
func (t *FlowTable) appendRules(out []Rule, sw topo.NodeID) []Rule {
	for k, ss := range t.flows {
		for i := range ss {
			out = append(out, ss[i].rule(sw, k))
		}
	}
	return out
}

// byKey sorts rules by Rule.Key, whose keys[i] is rules[i].Key().
type byKey struct {
	keys  []string
	rules []Rule
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.rules[i], b.rules[j] = b.rules[j], b.rules[i]
}

// sortByKey sorts rules by Rule.Key, formatting each key once.
func sortByKey(rules []Rule) {
	keys := make([]string, len(rules))
	for i := range rules {
		keys[i] = rules[i].Key()
	}
	sort.Sort(byKey{keys, rules})
}
