// Package dataplane simulates the OpenFlow-style substrate the Janus
// prototype (§6) installs configurations into: switches with priority flow
// tables and rate-limited queues, a controller that compiles path
// assignments to per-switch rules, diffs rule sets across reconfigurations
// (the cost model behind "minimize path changes", §2.2), and accounts for
// NF state transfers when a path move strands middlebox state.
//
// The simulation is deliberately at flow-rule granularity, not packet
// granularity: the paper's evaluation measures configuration quality
// (policies satisfied, path changes, rule updates), which this level
// reproduces faithfully.
package dataplane

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"janus/internal/core"
	"janus/internal/policy"
	"janus/internal/topo"
)

// Rule is one flow-table entry on a switch: traffic of a (src,dst) endpoint
// flow matching Match is forwarded to NextHop, optionally into a
// rate-limited queue (OpenFlow QoS queues, §6).
type Rule struct {
	Switch  topo.NodeID
	Src     string // endpoint name
	Dst     string
	Match   policy.Classifier
	NextHop topo.NodeID
	// InPort is the neighbor node the packet arrived from, or HostPort for
	// traffic entering from an attached endpoint. Input-port matching lets
	// one switch forward the same flow differently before and after an
	// NF-on-a-stick detour.
	InPort topo.NodeID
	// QueueMbps is the rate limit of the queue the flow is mapped to;
	// 0 means the default (best-effort) queue.
	QueueMbps float64
	// Priority orders overlapping rules; higher wins.
	Priority int
}

// HostPort is the InPort of rules matching traffic entering from an
// attached endpoint.
const HostPort = topo.NodeID(-1)

// Key identifies the rule slot (switch + flow + inport); two rules with
// equal keys and different actions are an update, not an insert.
func (r Rule) Key() string {
	return fmt.Sprintf("%d|%s|%s|%s|%d", r.Switch, r.Src, r.Dst, r.Match, r.InPort)
}

// Switch is one simulated forwarding element.
type Switch struct {
	ID    topo.NodeID
	Table FlowTable
}

// Network is the simulated dataplane: per-node flow tables (switches, plus
// the vswitch port of every NF box) and the NF boxes' per-flow state.
type Network struct {
	topo     *topo.Topology
	switches map[topo.NodeID]*Switch
	// nfState tracks which NF box holds state for each (flow, NF kind):
	// moving a flow to a path using a different box of the same kind
	// requires a state transfer (§2.2 / OpenNF).
	nfState map[string]topo.NodeID
	// faults, when non-nil, makes every table operation fallible (fault.go).
	faults *faultState
	// fast is the compiled flow-classification structure, set from
	// creation and swapped atomically by Publish at configuration settle
	// points; readers never block writers (fastlookup.go).
	fast    atomic.Pointer[Compiled]
	fastGen atomic.Uint64
	// fastCompiles / fastCompileNanos / fastLastNanos are compile counters
	// surfaced through FastpathStats for /metrics.
	fastCompiles     atomic.Uint64
	fastCompileNanos atomic.Int64
	fastLastNanos    atomic.Int64
	// fastObserver, when non-nil, is invoked by Publish with each new
	// generation and the rules it compiled (a test hook for the swap soak;
	// called on the writer's goroutine, serialized like all mutations).
	fastObserver func(gen uint64, rules []Rule)
}

// NewNetwork builds the dataplane for a topology. Every node gets a flow
// table: forwarding through an NF box is steered by rules on its
// attachment port, exactly like a switch.
func NewNetwork(t *topo.Topology) *Network {
	n := &Network{
		topo:     t,
		switches: make(map[topo.NodeID]*Switch),
		nfState:  make(map[string]topo.NodeID),
	}
	for _, node := range t.Nodes {
		n.switches[node.ID] = &Switch{ID: node.ID, Table: newFlowTable()}
	}
	// The empty tables' classifier is generation 0 and no counted compile.
	n.fast.Store(n.compile())
	return n
}

// Switches returns the switch IDs in ascending order.
func (n *Network) Switches() []topo.NodeID {
	out := make([]topo.NodeID, 0, len(n.switches))
	for id := range n.switches {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RuleCount returns the total installed rules.
func (n *Network) RuleCount() int {
	total := 0
	for _, sw := range n.switches {
		total += sw.Table.ruleCount()
	}
	return total
}

// RulesAt returns the rules installed on one switch, sorted by key.
func (n *Network) RulesAt(id topo.NodeID) []Rule {
	sw, ok := n.switches[id]
	if !ok {
		return nil
	}
	out := sw.Table.appendRules(make([]Rule, 0, sw.Table.ruleCount()), id)
	sortByKey(out)
	return out
}

// DropTable empties one switch's flow table without the fault gauntlet:
// the controller writing off the rules of a switch it has taken out of
// service, which it could not delete through the failing switch. The
// published fast path keeps the dropped rules until the next Publish.
func (n *Network) DropTable(id topo.NodeID) {
	if sw, ok := n.switches[id]; ok {
		sw.Table = newFlowTable()
	}
}

// IngressRule returns the rule a flow enters the network on: the one
// matchRule picks at the source's attachment for traffic from the host.
func (n *Network) IngressRule(src, dst string, proto policy.Protocol, port int) (Rule, bool) {
	ep, ok := n.topo.EndpointByName(src)
	if !ok {
		return Rule{}, false
	}
	k := flowKey{src, dst}
	s := matchRule(n.switches[ep.Attach], k, HostPort, proto, port)
	if s == nil {
		return Rule{}, false
	}
	return s.rule(ep.Attach, k), true
}

// CompileResult reports what applying a configuration did to the network.
type CompileResult struct {
	// RulesInstalled / RulesUpdated / RulesRemoved count flow-table deltas.
	RulesInstalled int
	RulesUpdated   int
	RulesRemoved   int
	// SwitchesTouched is the number of distinct switches with any delta —
	// the paper's rule-update latency scales with this (§2.2, He et al.).
	SwitchesTouched int
	// NFStateTransfers counts flows whose middlebox state had to move to a
	// different NF box because their path changed (§2.2, OpenNF).
	NFStateTransfers int
}

// CompileRules translates one period's assignments into per-switch rules.
// Each hard-edge assignment becomes one rule per switch on its path,
// mapping the flow into a queue rate-limited at the assignment's bandwidth
// (the queue-based QoS enforcement of §6). Soft (reserved) assignments
// install no rules until their condition fires.
func CompileRules(t *topo.Topology, g matchLookup, res *core.Result) []Rule {
	var rules []Rule
	for _, a := range res.Assignments {
		if a.Role != core.HardEdge {
			continue
		}
		match := g.MatchFor(a.Policy, a.EdgeIdx)
		nodes := a.Path.Nodes
		for i := 0; i+1 < len(nodes); i++ {
			inPort := HostPort
			if i > 0 {
				inPort = nodes[i-1]
			}
			// Next hop is the next node on the path (switch or NF box).
			rules = append(rules, Rule{
				Switch:    nodes[i],
				Src:       a.Src,
				Dst:       a.Dst,
				Match:     match,
				NextHop:   nodes[i+1],
				InPort:    inPort,
				QueueMbps: a.BW,
				Priority:  1,
			})
		}
	}
	return rules
}

// matchLookup resolves the classifier of a policy edge; implemented by
// *compose.Graph via the Adapter below, kept as an interface so tests can
// stub it.
type matchLookup interface {
	MatchFor(policyID, edgeIdx int) policy.Classifier
}

// AccountNFState updates the per-flow middlebox state ledger for the given
// assignments and returns the number of state transfers: for each hard
// assignment, a flow whose state lived on a different NF box of the same
// kind pays one transfer (§2.2 / OpenNF).
func (n *Network) AccountNFState(assignments []core.Assignment) int {
	transfers := 0
	for _, a := range assignments {
		if a.Role != core.HardEdge {
			continue
		}
		flow := core.FlowKey(a.Src, a.Dst)
		for _, node := range a.Path.Nodes {
			if n.topo.Nodes[node].Kind != topo.NFBox {
				continue
			}
			kind := n.topo.Nodes[node].NF
			if !statefulNF(kind) {
				continue
			}
			key := flow + "|" + string(kind)
			if prev, ok := n.nfState[key]; ok && prev != node {
				transfers++
			}
			n.nfState[key] = node
		}
	}
	return transfers
}

// statefulNF reports whether a middlebox kind carries per-flow state that
// must be transferred on path changes.
func statefulNF(k policy.NFKind) bool {
	switch k {
	case policy.LightIDS, policy.HeavyIDS, policy.StatefulFW, policy.DPI:
		return true
	default:
		return false
	}
}

// Lookup simulates forwarding: starting at the source endpoint's attachment
// switch, follow installed rules for the flow until the destination's
// switch is reached (and its chain is done). Switch rules match on input
// port, so NF-on-a-stick detours forward correctly. It returns the
// traversed node sequence or an error on a blackhole or loop (the §8
// consistency concerns).
//
//janus:hotpath
func (n *Network) Lookup(src, dst string, proto policy.Protocol, port int) ([]topo.NodeID, error) {
	srcEP, ok := n.topo.EndpointByName(src)
	if !ok {
		return nil, fmt.Errorf("dataplane: unknown endpoint %q", src) //janus:allow(hotalloc): error construction on the failure path only
	}
	dstEP, ok := n.topo.EndpointByName(dst)
	if !ok {
		return nil, fmt.Errorf("dataplane: unknown endpoint %q", dst) //janus:allow(hotalloc): error construction on the failure path only
	}
	cur := srcEP.Attach
	prev := HostPort
	flow := flowKey{src, dst}
	var walk []topo.NodeID
	maxSteps := 4*len(n.topo.Nodes) + 8
	for steps := 0; steps <= maxSteps; steps++ {
		walk = append(walk, cur) //janus:allow(hotalloc): the traversed path is the result; it grows O(hops) per lookup
		rule := matchRule(n.switches[cur], flow, prev, proto, port)
		if rule == nil {
			if cur == dstEP.Attach {
				return walk, nil // delivered to the attached endpoint
			}
			return walk, fmt.Errorf("dataplane: blackhole at switch %d for %s->%s", cur, src, dst) //janus:allow(hotalloc): error construction on the failure path; compile records one per class cell that blackholes
		}
		prev, cur = cur, rule.NextHop
	}
	return walk, fmt.Errorf("dataplane: forwarding loop for %s->%s (walk %v)", src, dst, walk) //janus:allow(hotalloc): error construction on the failure path only
}

// matchRule picks the winning rule for one hop among the flow's slots on
// the switch. Higher priority wins; equal-priority overlaps are broken by
// Classifier.Compare (most specific classifier first), NEVER by table
// order, so the pick is a pure function of the rule set. The compiled fast
// path calls this selection through Lookup rather than replaying it. A nil
// switch (a rule forwarding to a node with no table, e.g. a dangling next
// hop) matches nothing.
func matchRule(sw *Switch, flow flowKey, inPort topo.NodeID, proto policy.Protocol, port int) *slot {
	if sw == nil {
		return nil
	}
	var best *slot
	ss := sw.Table.flows[flow]
	for i := range ss {
		r := &ss[i]
		if r.InPort != inPort || !r.Match.Matches(proto, port) {
			continue
		}
		if best == nil || r.Priority > best.Priority ||
			(r.Priority == best.Priority && r.Match.Compare(best.Match) < 0) {
			best = r
		}
	}
	return best
}

// queueLoad sums, per directed link, the queue rate limits of rules
// forwarding onto that link — the bandwidth the dataplane has promised.
// Links whose promises exceed capacity indicate a configuration bug.
func (n *Network) queueLoad() map[[2]topo.NodeID]float64 {
	out := map[[2]topo.NodeID]float64{}
	for id, sw := range n.switches {
		for _, ss := range sw.Table.flows {
			for _, r := range ss {
				if r.QueueMbps > 0 {
					out[[2]topo.NodeID{id, r.NextHop}] += r.QueueMbps
				}
			}
		}
	}
	return out
}

// OverSubscribed returns the links whose promised queue bandwidth exceeds
// capacity.
func (n *Network) OverSubscribed() []string {
	var out []string
	for l, load := range n.queueLoad() {
		if capacity, ok := n.topo.LinkCapacity(l[0], l[1]); ok && load > capacity+1e-6 {
			out = append(out, fmt.Sprintf("%d->%d: %.1f/%.1f Mbps", l[0], l[1], load, capacity))
		}
	}
	sort.Strings(out)
	return out
}

// String renders a compact view of the flow tables.
func (n *Network) String() string {
	var b strings.Builder
	for _, id := range n.Switches() {
		rules := n.RulesAt(id)
		if len(rules) == 0 {
			continue
		}
		fmt.Fprintf(&b, "switch %d:\n", id)
		for _, r := range rules {
			fmt.Fprintf(&b, "  %s->%s [%s] out=%d q=%gMbps\n", r.Src, r.Dst, r.Match, r.NextHop, r.QueueMbps)
		}
	}
	return b.String()
}
