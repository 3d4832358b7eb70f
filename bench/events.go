package main

import (
	"context"
	"fmt"
	"math/rand"

	"janus/internal/policy"
	"janus/internal/runtime"
	"janus/internal/topo"
)

// Event kinds, also the last element of the janusd route that takes them.
const (
	evMove        = "move"
	evRelabel     = "relabel"
	evCounter     = "counter"
	evHour        = "hour"
	evLinkFail    = "linkfail"
	evLinkRestore = "linkrestore"
	// evGraph is a graph-churn op, not a route of its own: PUT the graph,
	// then POST /configure.
	evGraph = "graph"
)

// mix gives each event kind its share of a stream, in percent.
type mix map[string]int

// The churn mixes are mostly endpoint mobility. An hour tick is a full
// re-solve every time, a link event sometimes, and together they are the
// slowest 5 % of a stream at most, so the 90th percentile is an event
// the delta path served and the full solves show in the event rate.
//
// Link events are on Ans only. Whether a link failure is served by a delta
// solve or falls back to a full one hangs on a guard (the delta solve may
// lose one satisfied policy, not two) that the same link trips on one seed
// and not on the next. A fallback is 0.4 s on Ans, a fiftieth of a run; on
// Cwix it is 1.6 s, a tenth of a closed-loop run, and in the open loop
// one tooth more in a sawtooth of three, which moved the 90th percentile
// by a fifth.
var (
	churnAnsMix  = mix{evMove: 63, evRelabel: 10, evCounter: 20, evHour: 5, evLinkFail: 1, evLinkRestore: 1}
	churnCwixMix = mix{evMove: 67, evRelabel: 10, evCounter: 20, evHour: 3}
	// arrivalsMix has three full solves in a hundred events: each holds
	// up the ten or so events that come due meanwhile, so two events in
	// three meet an idle writer and the median is one of those, and the
	// 90th percentile is two thirds up the sawtooth of the ones that wait.
	arrivalsMix = mix{evMove: 97, evHour: 3}
)

// kindOrder fixes the order the mix is walked in, so a draw does not
// depend on map iteration.
var kindOrder = []string{evMove, evRelabel, evCounter, evHour, evLinkFail, evLinkRestore}

// maxLinksDown bounds simultaneous link failures.
const maxLinksDown = 2

// counterDelta is how many failed connections one counter event reports.
// The generated policies have no stateful edge for it to trip; with
// -stateful-edges it trips the first escalation at once.
const counterDelta = 5

// event is one runtime event in both of its forms: the body janusd takes
// and the arguments of the Runtime method behind that route.
type event struct {
	Kind     string
	Endpoint string        // move, relabel; counter source
	Peer     string        // counter destination
	Node     topo.NodeID   // move target; link end
	Node2    topo.NodeID   // other link end
	Labels   []string      // relabel
	Hour     int           // hour tick
	Graph    *policy.Graph // graph-churn op: the writer graph to replace
}

// body is the JSON janusd's /events/<kind> route decodes.
func (e event) body() map[string]any {
	switch e.Kind {
	case evMove:
		return map[string]any{"endpoint": e.Endpoint, "to": e.Node}
	case evRelabel:
		return map[string]any{"endpoint": e.Endpoint, "labels": e.Labels}
	case evCounter:
		return map[string]any{"src": e.Endpoint, "dst": e.Peer, "event": policy.FailedConnections, "delta": counterDelta}
	case evHour:
		return map[string]any{"hour": e.Hour}
	default:
		return map[string]any{"from": e.Node, "to": e.Node2}
	}
}

// apply calls the Runtime method janusd's route for the event calls.
func (e event) apply(ctx context.Context, rt *runtime.Runtime) error {
	switch e.Kind {
	case evMove:
		return rt.MoveEndpoint(ctx, e.Endpoint, e.Node)
	case evRelabel:
		return rt.RelabelEndpoint(ctx, e.Endpoint, e.Labels...)
	case evCounter:
		return rt.ReportEvent(ctx, e.Endpoint, e.Peer, policy.FailedConnections, counterDelta)
	case evHour:
		return rt.AdvanceTo(ctx, e.Hour)
	case evLinkFail:
		return rt.FailLink(ctx, e.Node, e.Node2)
	case evLinkRestore:
		return rt.RestoreLink(ctx, e.Node, e.Node2)
	}
	return fmt.Errorf("event: unknown kind %q", e.Kind)
}

// eventGen draws an endless seeded event stream that is valid against the
// instance it was made for: it applies every event it emits to a shadow
// topology of its own, so it never moves an unknown endpoint, fails a link
// that is down, or empties a policy's source group. The program under
// test sees only the events.
type eventGen struct {
	rng *rand.Rand
	// links draws which link fails or comes back. It is seeded by the
	// instance, not the run: whether a failed link carried traffic decides
	// between a delta solve and a full one fifty times dearer, and the
	// handful of link events in a run, drawn afresh per seed, made
	// throughput and tail latency a property of the seed.
	links    *rand.Rand
	mix      mix
	shadow   *topo.Topology
	switches []topo.NodeID
	credit   map[string]int
	// group is the policy each source endpoint currently belongs to; away
	// is the one endpoint relabelled out of its home group, if any.
	sources []string
	group   map[string]int
	away    string
	home    int
	// roamer is the one endpoint away from the switch the instance
	// attached it to, if any, and roamerHome that switch.
	roamer     string
	roamerHome topo.NodeID
	down       [][2]topo.NodeID
	downCap    []float64
	period     int
}

// newEventGen takes ownership of shadow, a private copy of the instance's
// topology.
func newEventGen(seed int64, m mix, shadow *topo.Topology) *eventGen {
	g := &eventGen{
		rng:      rand.New(rand.NewSource(seed)),
		links:    rand.New(rand.NewSource(instanceSeed)),
		mix:      m,
		shadow:   shadow,
		switches: shadow.NodesOfKind(topo.Switch, ""),
		credit:   map[string]int{},
		group:    map[string]int{},
	}
	for i := 0; i < numPolicies; i++ {
		for e := 0; e < srcPerPolicy; e++ {
			g.sources = append(g.sources, srcName(i, e))
			g.group[srcName(i, e)] = i
		}
	}
	return g
}

// nextKind interleaves the kinds by smooth weighted round-robin, so any
// run of n events holds each kind's share of n to within one event. Drawn
// independently, the number of hour ticks in a run (each a full re-solve)
// would vary by a third between seeds and swamp every timing; the seed
// draws what each event touches, not how many of each kind there are.
func (g *eventGen) nextKind() string {
	best := kindOrder[0]
	for _, k := range kindOrder {
		g.credit[k] += g.mix[k]
		if g.credit[k] > g.credit[best] {
			best = k
		}
	}
	g.credit[best] -= 100
	return best
}

func (g *eventGen) next() event {
	kind := g.nextKind()
	// An hour tick waits until every endpoint is back where the instance
	// put it, and the event that sends one back goes first in its place.
	// So every seed's full re-solves are of the instance's own four
	// periods, as near to the same problems as a history of different
	// delta solves allows; met wherever the roaming had got to, they cost
	// 300 to 900 ms on Ans by seed, and left 32 to 35 policies satisfied
	// until the next one.
	if kind == evHour && (g.away != "" || g.roamer != "") {
		g.credit[evHour] += 100
		kind = evMove
		if g.away != "" {
			kind = evRelabel
		}
		g.credit[kind] -= 100
	}
	switch kind {
	case evRelabel:
		return g.relabel()
	case evCounter:
		src := g.sources[g.rng.Intn(len(g.sources))]
		return event{Kind: evCounter, Endpoint: src, Peer: dstName(g.group[src])}
	case evHour:
		g.period = (g.period + 1) % timePeriods
		return event{Kind: evHour, Hour: g.period * policy.HoursPerDay / timePeriods}
	case evLinkFail, evLinkRestore:
		// At the limits the other link event takes this one's place, so
		// the share of link events stays what the mix says.
		if kind == evLinkFail && len(g.down) < maxLinksDown || len(g.down) == 0 {
			if ev, ok := g.linkFail(); ok {
				return ev
			}
		}
		if len(g.down) > 0 {
			return g.linkRestore()
		}
	}
	return g.move()
}

// move is endpoint mobility (§2.2): an endpoint roams to a random switch,
// and the next move sends it home. A stream of independent random moves is
// a random walk over placements: how many policies fit, and so how dear
// each solve is, would depend on where the walk had got to, and two seeds
// would time two different networks.
func (g *eventGen) move() event {
	name, to := g.roamer, g.roamerHome
	if name == "" {
		ep := g.shadow.Endpoints[g.rng.Intn(len(g.shadow.Endpoints))]
		name, to = ep.Name, g.switches[g.rng.Intn(len(g.switches))]
		g.roamer, g.roamerHome = name, ep.Attach
	} else {
		g.roamer = ""
	}
	// The endpoint and the switch both come from the shadow, so the move
	// cannot fail.
	_ = g.shadow.MoveEndpoint(name, to)
	return event{Kind: evMove, Endpoint: name, Node: to}
}

// relabel is a membership change (§2.2): a source endpoint joins another
// policy's source group, and the next relabel sends it home. One endpoint
// away from home at a time keeps every policy a source and keeps a long
// stream from piling sources onto a few policies, which would make late
// events dearer than early ones.
func (g *eventGen) relabel() event {
	src, to := g.away, g.home
	if src == "" {
		src = g.sources[g.rng.Intn(len(g.sources))]
		g.home = g.group[src]
		to = (g.home + 1 + g.rng.Intn(numPolicies-1)) % numPolicies
		g.away = src
	} else {
		g.away = ""
	}
	g.group[src] = to
	labels := []string{srcLabel(to)}
	_ = g.shadow.RelabelEndpoint(src, labels...) // src is a shadow endpoint
	return event{Kind: evRelabel, Endpoint: src, Labels: labels}
}

// linkFail takes down a switch-to-switch link whose loss leaves both ends
// with two links or more and the network connected.
func (g *eventGen) linkFail() (event, bool) {
	for _, i := range g.links.Perm(len(g.shadow.Links)) {
		l := g.shadow.Links[i]
		if l.From > l.To || g.shadow.Nodes[l.From].Kind != topo.Switch || g.shadow.Nodes[l.To].Kind != topo.Switch {
			continue
		}
		if len(g.shadow.Neighbors(l.From)) < 3 || len(g.shadow.Neighbors(l.To)) < 3 {
			continue
		}
		if err := g.shadow.RemoveLink(l.From, l.To); err != nil {
			continue
		}
		if g.shadow.Validate() != nil {
			_ = g.shadow.AddLink(l.From, l.To, l.Capacity) // puts back what was just removed
			continue
		}
		g.down = append(g.down, [2]topo.NodeID{l.From, l.To})
		g.downCap = append(g.downCap, l.Capacity)
		return event{Kind: evLinkFail, Node: l.From, Node2: l.To}, true
	}
	return event{}, false
}

func (g *eventGen) linkRestore() event {
	i := g.links.Intn(len(g.down))
	l := g.down[i]
	_ = g.shadow.AddLink(l[0], l[1], g.downCap[i]) // the link is down, so adding it cannot collide
	g.down = append(g.down[:i], g.down[i+1:]...)
	g.downCap = append(g.downCap[:i], g.downCap[i+1:]...)
	return event{Kind: evLinkRestore, Node: l[0], Node2: l[1]}
}

// graphGen draws graph-churn ops: a random writer resubmits its graph with
// a re-drawn bandwidth, which janusd answers with compose, path
// enumeration from an empty cache and a full solve; the next op resubmits
// that writer's original graph. Left to accumulate, re-drawn bandwidths
// would make a long run a different instance for every seed, and MILP
// solve times are touchy enough for that to double the op rate.
type graphGen struct {
	rng     *rand.Rand
	in      *instance
	redrawn int // the writer off its base bandwidth, or -1
}

func (g *graphGen) next() event {
	i := g.redrawn
	if i >= 0 {
		g.redrawn = -1
		return event{Kind: evGraph, Graph: writerGraph(i, g.in.Chains[i], g.in.BaseBW[i])}
	}
	i = g.rng.Intn(numPolicies)
	g.redrawn = i
	return event{Kind: evGraph, Graph: writerGraph(i, g.in.Chains[i], minBW+g.rng.Float64()*(maxBW-minBW))}
}
