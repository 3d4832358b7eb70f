// Package traffic is a flow-level simulator validating that a configured
// dataplane actually delivers its QoS guarantees: flows are routed by the
// installed rules, reserved queue bandwidth is granted first (the
// rate-limited queues of §6 enforce minimum-bandwidth policies), and the
// remaining capacity is shared max-min fairly among unreserved demand
// (progressive filling).
//
// The simulator answers the end-to-end question behind the paper's QoS
// claims: under congestion, does every configured policy's flow still see
// its minimum bandwidth?
package traffic

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"janus/internal/dataplane"
	"janus/internal/policy"
	"janus/internal/topo"
)

// Flow is one offered traffic flow.
type Flow struct {
	Src, Dst string // endpoint names
	Proto    policy.Protocol
	Port     int
	// DemandMbps is the offered load.
	DemandMbps float64
}

// Allocation is the simulator's result for one flow.
type Allocation struct {
	Flow Flow
	// Path is the node walk the rules produced; nil when the flow
	// blackholed (no policy admits it).
	Path []topo.NodeID
	// ReservedMbps is the queue reservation along the path (0 for
	// best-effort flows).
	ReservedMbps float64
	// RateMbps is the achieved rate: guaranteed share plus max-min share
	// of leftover capacity.
	RateMbps float64
	// Delivered is false when the flow blackholed.
	Delivered bool
}

// LinkLoad reports post-simulation utilization of one directed link.
type LinkLoad struct {
	From, To topo.NodeID
	Capacity float64
	Carried  float64
}

// Result is a full simulation outcome.
type Result struct {
	Allocations []Allocation
	Links       []LinkLoad
}

// GuaranteeViolations returns the flows that received less than
// min(demand, reservation) — which must be empty for a correct
// configuration.
func (r *Result) GuaranteeViolations() []Allocation {
	var out []Allocation
	for _, a := range r.Allocations {
		if !a.Delivered || a.ReservedMbps <= 0 {
			continue
		}
		want := math.Min(a.Flow.DemandMbps, a.ReservedMbps)
		if a.RateMbps < want-1e-6 {
			out = append(out, a)
		}
	}
	return out
}

// Simulate routes the flows through the network's installed rules and
// computes rates.
func Simulate(t *topo.Topology, n *dataplane.Network, flows []Flow) (*Result, error) {
	type routed struct {
		flow     Flow
		links    [][2]topo.NodeID
		path     []topo.NodeID
		reserved float64
	}
	var admitted []routed
	res := &Result{}

	for _, f := range flows {
		if f.DemandMbps <= 0 {
			return nil, fmt.Errorf("traffic: flow %s->%s has non-positive demand", f.Src, f.Dst)
		}
		walk, err := n.Lookup(f.Src, f.Dst, f.Proto, f.Port)
		if err != nil {
			res.Allocations = append(res.Allocations, Allocation{Flow: f})
			continue
		}
		links := make([][2]topo.NodeID, 0, len(walk)-1)
		for i := 0; i+1 < len(walk); i++ {
			links = append(links, [2]topo.NodeID{walk[i], walk[i+1]})
		}
		admitted = append(admitted, routed{
			flow:     f,
			links:    links,
			path:     walk,
			reserved: reservationOf(n, f),
		})
	}

	// Residual capacity per directed link after granting reservations.
	residual := map[[2]topo.NodeID]float64{}
	capOf := func(l [2]topo.NodeID) float64 {
		if c, ok := residual[l]; ok {
			return c
		}
		c, ok := t.LinkCapacity(l[0], l[1])
		if !ok {
			c = math.Inf(1) // virtual hop (e.g. within a node); not limiting
		}
		residual[l] = c
		return c
	}
	rates := make([]float64, len(admitted))
	extraDemand := make([]float64, len(admitted))
	for i, r := range admitted {
		guaranteed := math.Min(r.flow.DemandMbps, r.reserved)
		rates[i] = guaranteed
		extraDemand[i] = r.flow.DemandMbps - guaranteed
		for _, l := range r.links {
			residual[l] = capOf(l) - guaranteed
			if residual[l] < 0 {
				// Over-reservation would be a configurator bug; clamp and
				// surface through link loads rather than failing.
				residual[l] = 0
			}
		}
	}

	// Progressive filling (max-min) of the leftover demand.
	active := map[int]bool{}
	for i := range admitted {
		if extraDemand[i] > 1e-9 {
			active[i] = true
		}
	}
	for len(active) > 0 {
		// Find the tightest link among active flows.
		type linkState struct {
			users int
			avail float64
		}
		states := map[[2]topo.NodeID]*linkState{}
		for i := range active {
			for _, l := range admitted[i].links {
				s, ok := states[l]
				if !ok {
					s = &linkState{avail: capOf(l)}
					states[l] = s
				}
				s.users++
			}
		}
		increment := math.Inf(1)
		for _, s := range states {
			if share := s.avail / float64(s.users); share < increment {
				increment = share
			}
		}
		// Demand satisfaction can bind before any link does.
		for i := range active {
			if extraDemand[i] < increment {
				increment = extraDemand[i]
			}
		}
		if math.IsInf(increment, 1) || increment <= 1e-12 {
			increment = 0
		}
		// Apply the increment and retire saturated flows/links.
		frozen := []int{}
		for i := range active {
			rates[i] += increment
			extraDemand[i] -= increment
			for _, l := range admitted[i].links {
				residual[l] -= increment
			}
			if extraDemand[i] <= 1e-9 {
				frozen = append(frozen, i)
			}
		}
		for i := range active {
			if slices.Contains(frozen, i) {
				continue
			}
			for _, l := range admitted[i].links {
				if residual[l] <= 1e-9 {
					frozen = append(frozen, i)
					break
				}
			}
		}
		if len(frozen) == 0 {
			break // numerical stalemate; stop rather than spin
		}
		for _, i := range frozen {
			delete(active, i)
		}
	}

	// Assemble results.
	carried := map[[2]topo.NodeID]float64{}
	for i, r := range admitted {
		res.Allocations = append(res.Allocations, Allocation{
			Flow:         r.flow,
			Path:         r.path,
			ReservedMbps: r.reserved,
			RateMbps:     rates[i],
			Delivered:    true,
		})
		for _, l := range r.links {
			carried[l] += rates[i]
		}
	}
	var linkKeys [][2]topo.NodeID
	for l := range carried {
		linkKeys = append(linkKeys, l)
	}
	sort.Slice(linkKeys, func(i, j int) bool {
		if linkKeys[i][0] != linkKeys[j][0] {
			return linkKeys[i][0] < linkKeys[j][0]
		}
		return linkKeys[i][1] < linkKeys[j][1]
	})
	for _, l := range linkKeys {
		c, ok := t.LinkCapacity(l[0], l[1])
		if !ok {
			continue
		}
		res.Links = append(res.Links, LinkLoad{From: l[0], To: l[1], Capacity: c, Carried: carried[l]})
	}
	return res, nil
}

// reservationOf returns the queue rate limit of the rule the flow entered
// the network on.
func reservationOf(n *dataplane.Network, f Flow) float64 {
	if r, ok := n.IngressRule(f.Src, f.Dst, f.Proto, f.Port); ok {
		return r.QueueMbps
	}
	return 0
}
