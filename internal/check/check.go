// Package check statically verifies that an installed dataplane
// configuration realizes a composed policy graph — the network-verification
// counterpart to the configurator: where core *synthesizes* rules, check
// independently *audits* them. It validates four properties per period:
//
//  1. Reachability: every endpoint pair of a configured policy forwards
//     end to end under the policy's classifier.
//  2. Chain enforcement: the forwarding walk traverses the active edge's
//     NF kinds in order (waypoint correctness).
//  3. Isolation: traffic between endpoint pairs not covered by any policy
//     (or covered by a violated policy) blackholes — no accidental
//     reachability.
//  4. Capacity: promised queue bandwidth stays within every link capacity.
//
// The checker shares no code with the configurator's model builder beyond
// the topology's endpoint pairs and the composer's active-edge rule, so a
// bug in one is caught by the other.
package check

import (
	"fmt"
	"sort"

	"janus/internal/compose"
	"janus/internal/core"
	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// Violation is one audit finding.
type Violation struct {
	Kind   Kind
	Policy int // -1 when not policy-specific
	Detail string
}

// Kind classifies audit findings.
type Kind string

// Violation kinds.
const (
	Unreachable    Kind = "unreachable"     // configured pair does not forward
	ChainViolation Kind = "chain-violation" // walk skips or reorders NFs
	LeakyIsolation Kind = "leaky-isolation" // unconfigured pair forwards
	OverCapacity   Kind = "over-capacity"   // promised bandwidth exceeds a link
)

func (v Violation) String() string {
	return fmt.Sprintf("%s (policy %d): %s", v.Kind, v.Policy, v.Detail)
}

// Audit verifies the network against the composed graph and the period's
// result at the given hour with the given per-flow event counters (nil for
// normal state).
func Audit(t *topo.Topology, g *compose.Graph, net *dataplane.Network, res *core.Result, hour int, counters core.Counters) []Violation {
	var out []Violation

	// Properties 1+2: every configured policy's pairs forward through
	// their active edge's chain.
	for _, p := range g.Policies {
		if !res.Configured[p.ID] {
			continue
		}
		for _, pair := range t.Pairs(p.Src, p.Dst) {
			edge, _, ok := compose.ActiveEdge(p, hour, counters[core.FlowKey(pair[0], pair[1])])
			if !ok {
				continue // policy allows nothing in this state
			}
			proto, port := sampleTraffic(edge.Match)
			walk, err := net.Lookup(pair[0], pair[1], proto, port)
			if err != nil {
				out = append(out, Violation{Unreachable, p.ID,
					fmt.Sprintf("%s->%s: %v", pair[0], pair[1], err)})
				continue
			}
			if !traversesChain(t, walk, edge.Chain) {
				out = append(out, Violation{ChainViolation, p.ID,
					fmt.Sprintf("%s->%s: chain %s not traversed in %v", pair[0], pair[1], edge.Chain, walk)})
			}
		}
	}

	// Property 3: isolation. Probe every endpoint pair; pairs with no
	// covering configured policy must blackhole.
	covered := map[[2]string]bool{}
	for _, p := range g.Policies {
		if !res.Configured[p.ID] {
			continue
		}
		for _, pair := range t.Pairs(p.Src, p.Dst) {
			covered[pair] = true
		}
	}
	for _, src := range t.Endpoints {
		for _, dst := range t.Endpoints {
			if src.Name == dst.Name || covered[[2]string{src.Name, dst.Name}] {
				continue
			}
			// Endpoints on one switch are locally switched without fabric
			// rules; isolating them needs edge-port ACLs, which are below
			// this model's abstraction. Only cross-fabric leaks count.
			if src.Attach == dst.Attach {
				continue
			}
			if walk, err := net.Lookup(src.Name, dst.Name, policy.TCP, 80); err == nil {
				out = append(out, Violation{LeakyIsolation, -1,
					fmt.Sprintf("%s->%s reachable without a policy (walk %v)", src.Name, dst.Name, walk)})
			}
		}
	}

	// Property 4: capacity.
	for _, over := range net.OverSubscribed() {
		out = append(out, Violation{OverCapacity, -1, over})
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

func traversesChain(t *topo.Topology, walk []topo.NodeID, chain policy.Chain) bool {
	prog := 0
	for _, n := range walk {
		if prog < len(chain) && t.Nodes[n].Kind == topo.NFBox && t.Nodes[n].NF == chain[prog] {
			prog++
		}
	}
	return prog == len(chain)
}

func sampleTraffic(c policy.Classifier) (policy.Protocol, int) {
	proto := c.Proto
	if proto == "" || proto == policy.Any {
		proto = policy.TCP
	}
	port := 80
	if len(c.Ports) > 0 {
		port = c.Ports[0]
	}
	return proto, port
}
