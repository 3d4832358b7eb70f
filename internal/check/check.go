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
// Properties 1–3 are asked of the compiled classifier (dataplane.Compiled)
// that readers are served, whose every class cell is one interpreted
// forwarding walk over the tables; property 4 reads the tables.
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

// Audit verifies the network's published classifier and its tables against
// the composed graph and the period's result at the given hour with the
// given per-flow event counters (nil for normal state).
func Audit(t *topo.Topology, g *compose.Graph, net *dataplane.Network, res *core.Result, hour int, counters core.Counters) []Violation {
	return AuditCompiled(t, g, net, net.Fastpath(), res, hour, counters)
}

// AuditCompiled is Audit of c, a classifier compiled from net's tables and
// not necessarily published yet: the install audits what it is about to
// publish.
func AuditCompiled(t *topo.Topology, g *compose.Graph, net *dataplane.Network, c *dataplane.Compiled, res *core.Result, hour int, counters core.Counters) []Violation {
	var out []Violation

	// Properties 1+2: every configured policy's pairs forward through
	// their active edge's chain. The loop also marks each pair as covered
	// for the isolation sweep, in a bit matrix over the endpoints' ids in
	// c, whether or not its policy allows anything in this state.
	m := c.Endpoints()
	covered := make([]uint64, (m*m+63)/64)
	for _, p := range g.Policies {
		if !res.Configured[p.ID] {
			continue
		}
		for _, pair := range t.Pairs(p.Src, p.Dst) {
			s, sok := c.Endpoint(pair[0])
			d, dok := c.Endpoint(pair[1])
			if k := int(s)*m + int(d); sok && dok {
				covered[k/64] |= 1 << (k % 64)
			}
			edge, _, ok := compose.ActiveEdge(p, hour, counters[core.FlowKey(pair[0], pair[1])])
			if !ok {
				continue // policy allows nothing in this state
			}
			proto, port := sampleTraffic(edge.Match)
			walk, err := c.Lookup(pair[0], pair[1], proto, port)
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
	// covering configured policy must blackhole, on TCP/80 and on every
	// other class the pair's compiled rules cut.
	//
	// The sweep reads every ordered pair, so each endpoint's name is
	// resolved once: ids holds each endpoint's id in c (-1 if c lacks it).
	ids := make([]int32, len(t.Endpoints))
	for i, ep := range t.Endpoints {
		ids[i] = -1
		if id, ok := c.Endpoint(ep.Name); ok {
			ids[i] = id
		}
	}
	for i, src := range t.Endpoints {
		for j, dst := range t.Endpoints {
			// Endpoints on one switch are locally switched without fabric
			// rules; isolating them needs edge-port ACLs, which are below
			// this model's abstraction. Only cross-fabric leaks count.
			if src.Name == dst.Name || src.Attach == dst.Attach || ids[i] < 0 || ids[j] < 0 {
				continue
			}
			if k := int(ids[i])*m + int(ids[j]); covered[k/64]&(1<<(k%64)) != 0 {
				continue
			}
			class, walk, err := c.LookupAnyClass(ids[i], ids[j], policy.TCP, 80)
			if err != nil {
				continue
			}
			on := ""
			if class != "" {
				on = " on " + class
			}
			out = append(out, Violation{LeakyIsolation, -1,
				fmt.Sprintf("%s->%s reachable without a policy%s (walk %v)", src.Name, dst.Name, on, walk)})
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

func traversesChain(t *topo.Topology, walk dataplane.Path, chain policy.Chain) bool {
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
