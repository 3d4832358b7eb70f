// Package compose implements the Janus graph composer (§4): it merges
// policy graphs from multiple writers into one composed policy graph whose
// nodes are label-intersection EPGs and whose edges carry merged
// classifiers, concatenated service chains, max-merged QoS labels, and the
// conjunction of dynamic conditions.
//
// Composition rules follow the paper:
//   - Same QoS metric on both edges: pick the label with better performance
//     (Fig 8a).
//   - Different metrics: keep both, pruning pairs that cannot coexist
//     (min-bw above max-bw), in which case composition reports a conflict
//     (Fig 8b).
//   - Stateful conditions: the composed edge applies when both hold; an
//     unsatisfiable conjunction removes the edge (Fig 10a).
//   - Temporal windows: the composed edge is active only during the overlap;
//     disjoint windows partition into per-writer residual edges (Fig 10b).
package compose

import (
	"encoding/json"
	"fmt"
	"sort"

	"janus/internal/labels"
	"janus/internal/policy"
)

// Policy is one configurable unit of the composed graph: a (src EPG,
// dst EPG) pair with a default edge and zero or more non-default
// (conditional) edges, plus the weight inherited from its writers. The
// policy configurator treats each Policy atomically across its endpoint
// group (§5.2).
type Policy struct {
	// ID is a stable identifier within the composed graph.
	ID int
	// Src and Dst are composed EPGs (label-set identity).
	Src, Dst policy.EPG
	// Default is the edge for normal traffic (§5.3). For purely temporal
	// policies Default is the edge of the first time period; Edges holds
	// the rest.
	Default policy.Edge
	// NonDefault are the stateful/temporal escalation edges.
	NonDefault []policy.Edge
	// Weight is W_i in Eqn 1.
	Weight float64
	// Writers lists the input graphs this policy came from.
	Writers []string
}

// AllEdges returns the default edge followed by the non-default edges.
func (p *Policy) AllEdges() []policy.Edge {
	out := make([]policy.Edge, 0, 1+len(p.NonDefault))
	out = append(out, p.Default)
	out = append(out, p.NonDefault...)
	return out
}

// Key identifies the (src,dst) EPG pair.
func (p *Policy) Key() string { return p.Src.Key() + "|" + p.Dst.Key() }

// Graph is the composed policy graph: the output of composition and the
// input to the policy configurator. It is stored as a hash table keyed by
// (source EPG, destination EPG, state), mirroring the prototype (§6).
type Graph struct {
	// Policies in deterministic order (by Key).
	Policies []*Policy
	// Conflicts lists composition conflicts that required dropping an edge
	// (unsatisfiable stateful conjunction, incompatible min/max bandwidth).
	Conflicts []Conflict

	byKey map[string]*Policy
}

// Conflict records a composition decision that removed or rewrote an edge.
type Conflict struct {
	Kind    ConflictKind
	Src     string // composed src EPG key
	Dst     string // composed dst EPG key
	Detail  string
	Writers []string
}

// ConflictKind classifies composition conflicts.
type ConflictKind string

// Conflict kinds.
const (
	UnsatisfiableState ConflictKind = "unsatisfiable-state" // Fig 10a: >8 ∧ <4
	BandwidthConflict  ConflictKind = "bandwidth-conflict"  // §2.1: min 100 vs max 50
	DisjointWindows    ConflictKind = "disjoint-windows"    // Fig 10b residuals
	EmptyClassifier    ConflictKind = "empty-classifier"    // tcp ∩ udp
)

func (c Conflict) String() string {
	return fmt.Sprintf("%s: %s -> %s: %s", c.Kind, c.Src, c.Dst, c.Detail)
}

// UnmarshalJSON decodes a serialized composed graph and rebuilds the
// unexported key index, so graphs recovered from the durable store answer
// Lookup exactly like freshly composed ones.
func (g *Graph) UnmarshalJSON(data []byte) error {
	type plain Graph // shed methods to avoid recursing into this unmarshaler
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	*g = Graph(p)
	g.byKey = make(map[string]*Policy, len(g.Policies))
	for _, pol := range g.Policies {
		g.byKey[pol.Key()] = pol
	}
	return nil
}

// Lookup returns the policy for a composed (src,dst) EPG key pair.
func (g *Graph) Lookup(srcKey, dstKey string) (*Policy, bool) {
	p, ok := g.byKey[srcKey+"|"+dstKey]
	return p, ok
}

// PolicyByID returns the policy with the given ID, or nil.
func (g *Graph) PolicyByID(id int) *Policy {
	for _, p := range g.Policies {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// Periods returns the sorted hour boundaries at which any composed policy's
// temporal condition changes, always including 0 (§5.5: the time periods TP
// at which the composed policy graph will change).
func (g *Graph) Periods() []int {
	set := map[int]bool{0: true}
	for _, p := range g.Policies {
		for _, e := range p.AllEdges() {
			w := e.Cond.Window
			if w.IsAllDay() {
				continue
			}
			set[w.Start%policy.HoursPerDay] = true
			set[w.End%policy.HoursPerDay] = true
		}
	}
	out := make([]int, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// PeriodAt returns the period that contains hour h: the largest boundary
// of Periods at or before h.
func (g *Graph) PeriodAt(h int) int {
	period := 0
	for _, p := range g.Periods() {
		if p <= h {
			period = p
		}
	}
	return period
}

// ActiveEdge returns the edge of p that applies at hour h under the given
// event counters and its index into p.AllEdges(); ok=false (and index -1)
// when no edge is active. When several edges are active simultaneously the
// most specific one wins: first the edge composed from the most writers
// (§4.2: traffic satisfying both dynamic policies goes through the
// composed policy), then the tightest stateful condition.
func ActiveEdge(p *Policy, h int, counters map[policy.Event]int) (policy.Edge, int, bool) {
	best := -1
	for i, e := range p.NonDefault {
		if !e.Cond.ActiveAt(h, counters) {
			continue
		}
		if best < 0 || moreSpecific(e, p.NonDefault[best]) {
			best = i
		}
	}
	if best >= 0 {
		return p.NonDefault[best], best + 1, true
	}
	if p.Default.Cond.ActiveAt(h, counters) {
		return p.Default, 0, true
	}
	return policy.Edge{}, -1, false
}

// moreSpecific reports whether edge a should shadow edge b when both are
// active.
func moreSpecific(a, b policy.Edge) bool {
	if a.OriginCount() != b.OriginCount() {
		return a.OriginCount() > b.OriginCount()
	}
	if sa, sb := statefulTightness(a.Cond.Stateful), statefulTightness(b.Cond.Stateful); sa != sb {
		return sa > sb
	}
	return windowLen(a.Cond.Window) < windowLen(b.Cond.Window)
}

// statefulTightness scores how constraining a stateful condition is: more
// constrained events and higher lower bounds score higher.
func statefulTightness(c policy.StatefulCond) int {
	score := 0
	for _, r := range c.Ranges {
		score += 1000 + r.Lo
		if r.Hi != policy.Unbounded {
			score += 1
		}
	}
	return score
}

func windowLen(w policy.TimeWindow) int {
	if w.IsAllDay() {
		return policy.HoursPerDay
	}
	n := 0
	for h := 0; h < policy.HoursPerDay; h++ {
		if w.Contains(h) {
			n++
		}
	}
	return n
}

// Composer merges input policy graphs under a label scheme.
type Composer struct {
	scheme *labels.Scheme
}

// New returns a Composer using the given label scheme (nil means the
// default scheme).
func New(scheme *labels.Scheme) *Composer {
	if scheme == nil {
		scheme = labels.Default()
	}
	return &Composer{scheme: scheme}
}

// Scheme returns the composer's label scheme.
func (c *Composer) Scheme() *labels.Scheme { return c.scheme }

// Compose validates and merges the input graphs into a composed Graph.
//
// The algorithm follows §4: every input edge is first normalized to a
// composed-EPG edge; edges sharing a (src,dst) composed pair from different
// writers are merged pairwise (classifier intersection, chain
// concatenation, QoS max-merge, condition conjunction); finally edges of
// one pair are grouped into a Policy with one default edge.
func (c *Composer) Compose(inputs ...*policy.Graph) (*Graph, error) {
	for _, in := range inputs {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("compose: %w", err)
		}
	}
	type bucket struct {
		src, dst policy.EPG
		edges    []annotated
		weight   float64
		writers  map[string]bool
	}
	buckets := make(map[string]*bucket)
	order := []string{}

	for _, in := range inputs {
		for _, e := range in.Edges {
			src, _ := in.EPGByName(e.Src)
			dst, _ := in.EPGByName(e.Dst)
			key := src.Key() + "|" + dst.Key()
			b, ok := buckets[key]
			if !ok {
				b = &bucket{src: src, dst: dst, writers: make(map[string]bool)}
				buckets[key] = b
				order = append(order, key)
			}
			b.edges = append(b.edges, annotated{edge: e, writer: in.Name})
			if w := in.EffectiveWeight(); w > b.weight {
				b.weight = w
			}
			b.writers[in.Name] = true
		}
	}
	sort.Strings(order)

	out := &Graph{byKey: make(map[string]*Policy)}
	nextID := 0
	for _, key := range order {
		b := buckets[key]
		merged, conflicts := c.mergeBucket(b.src, b.dst, b.edges)
		out.Conflicts = append(out.Conflicts, conflicts...)
		if len(merged) == 0 {
			continue
		}
		p := &Policy{
			ID:     nextID,
			Src:    b.src,
			Dst:    b.dst,
			Weight: b.weight,
		}
		nextID++
		for w := range b.writers {
			p.Writers = append(p.Writers, w)
		}
		sort.Strings(p.Writers)
		// Pick the default edge: an explicitly marked default, else the
		// first static edge, else the earliest temporal edge.
		defIdx := pickDefault(merged)
		p.Default = merged[defIdx]
		p.Default.Default = true
		for i, e := range merged {
			if i != defIdx {
				p.NonDefault = append(p.NonDefault, e)
			}
		}
		out.Policies = append(out.Policies, p)
		out.byKey[p.Key()] = p
	}
	return out, nil
}

type annotated struct {
	edge   policy.Edge
	writer string
}

// mergeBucket merges all edges of one composed (src,dst) pair. Edges from
// the same writer are kept as alternative states; edges from different
// writers are pairwise composed (§4.2 composition semantics: traffic goes
// through the composed policy when both dynamic policies are satisfied;
// traffic satisfying only one writer's condition keeps that writer's
// residual edge).
func (c *Composer) mergeBucket(src, dst policy.EPG, in []annotated) ([]policy.Edge, []Conflict) {
	var conflicts []Conflict
	byWriter := make(map[string][]policy.Edge)
	var writers []string
	for _, a := range in {
		if _, ok := byWriter[a.writer]; !ok {
			writers = append(writers, a.writer)
		}
		byWriter[a.writer] = append(byWriter[a.writer], a.edge)
	}
	sort.Strings(writers)
	for _, w := range writers {
		byWriter[w] = refineDefaults(byWriter[w])
	}

	current := byWriter[writers[0]]
	for _, w := range writers[1:] {
		var next []policy.Edge
		for _, a := range current {
			for _, b := range byWriter[w] {
				m, conf, ok := c.mergeEdges(src, dst, a, b)
				if conf != nil {
					conflicts = append(conflicts, *conf)
				}
				if ok {
					next = append(next, m)
				}
			}
		}
		// Residual edges: when both writers have dynamic policies, traffic
		// satisfying only one condition still goes through that writer's
		// policy (§4.2). Residuals only exist for dynamic non-default
		// edges; default/static edges fully merge.
		for _, a := range current {
			if !a.Cond.IsStatic() && !a.Default {
				next = append(next, a)
			}
		}
		for _, b := range byWriter[w] {
			if !b.Cond.IsStatic() && !b.Default {
				next = append(next, b)
			}
		}
		current = dedupeEdges(next)
	}
	return current, conflicts
}

// refineDefaults narrows one writer's normal-traffic edges with the
// implicit negation of that writer's escalation conditions: in Fig 9b the
// "Normal" edge means "fewer than 5 failed connections", even though the
// writer never spells that out. Refinement makes impossible cross-writer
// products (A normal ∧ B escalated on the same counter) unsatisfiable, so
// they are pruned during composition.
func refineDefaults(edges []policy.Edge) []policy.Edge {
	// Lowest escalation threshold per event across the writer's
	// non-default edges.
	minLo := map[policy.Event]int{}
	for _, e := range edges {
		if e.Default || e.Cond.Stateful.IsAlways() {
			continue
		}
		for ev, r := range e.Cond.Stateful.Ranges {
			if r.Lo <= 0 {
				continue // not an escalation threshold
			}
			if cur, ok := minLo[ev]; !ok || r.Lo < cur {
				minLo[ev] = r.Lo
			}
		}
	}
	if len(minLo) == 0 {
		return edges
	}
	out := make([]policy.Edge, len(edges))
	copy(out, edges)
	for i, e := range out {
		if !e.Default && !e.Cond.Stateful.IsAlways() {
			continue
		}
		refined := e.Cond.Stateful
		for ev, lo := range minLo {
			c, ok := refined.And(policy.WhenBelow(ev, lo))
			if !ok {
				continue // keep the writer's own condition untouched
			}
			refined = c
		}
		out[i].Cond.Stateful = refined
		out[i].Default = true
	}
	return out
}

// mergeEdges composes two edges of the same (src,dst) pair from different
// writers. ok=false means the pair produces no composed edge.
func (c *Composer) mergeEdges(src, dst policy.EPG, a, b policy.Edge) (policy.Edge, *Conflict, bool) {
	match, ok := a.Match.Intersect(b.Match)
	if !ok {
		return policy.Edge{}, &Conflict{
			Kind: EmptyClassifier, Src: src.Key(), Dst: dst.Key(),
			Detail: fmt.Sprintf("%s ∩ %s is empty", a.Match, b.Match),
		}, false
	}
	cond, conf, ok := mergeConditions(src, dst, a.Cond, b.Cond)
	if !ok {
		return policy.Edge{}, conf, false
	}
	qos, conf2, ok := c.mergeQoS(src, dst, a.QoS, b.QoS)
	if !ok {
		return policy.Edge{}, conf2, false
	}
	out := policy.Edge{
		Src:     src.Name,
		Dst:     dst.Name,
		Match:   match,
		Chain:   a.Chain.Concat(b.Chain),
		QoS:     qos,
		Cond:    cond,
		Origins: a.OriginCount() + b.OriginCount(),
		Default: a.Default && b.Default,
	}
	return out, nil, true
}

func mergeConditions(src, dst policy.EPG, a, b policy.Condition) (policy.Condition, *Conflict, bool) {
	state, ok := a.Stateful.And(b.Stateful)
	if !ok {
		return policy.Condition{}, &Conflict{
			Kind: UnsatisfiableState, Src: src.Key(), Dst: dst.Key(),
			Detail: fmt.Sprintf("%s ∧ %s unsatisfiable", a.Stateful, b.Stateful),
		}, false
	}
	win, ok := intersectWindows(a.Window, b.Window)
	if !ok {
		return policy.Condition{}, &Conflict{
			Kind: DisjointWindows, Src: src.Key(), Dst: dst.Key(),
			Detail: fmt.Sprintf("windows %s and %s do not overlap", a.Window, b.Window),
		}, false
	}
	return policy.Condition{Stateful: state, Window: win}, nil, true
}

// intersectWindows intersects two daily windows, returning ok=false when
// disjoint. When the intersection is non-contiguous (can happen with
// wrapping windows) the largest contiguous run is kept.
func intersectWindows(a, b policy.TimeWindow) (policy.TimeWindow, bool) {
	if a.IsAllDay() {
		return b, true
	}
	if b.IsAllDay() {
		return a, true
	}
	inBoth := make([]bool, policy.HoursPerDay)
	any := false
	for h := 0; h < policy.HoursPerDay; h++ {
		if a.Contains(h) && b.Contains(h) {
			inBoth[h] = true
			any = true
		}
	}
	if !any {
		return policy.TimeWindow{}, false
	}
	// Find the longest contiguous true-run on the 24h ring.
	bestStart, bestLen := 0, 0
	for start := 0; start < policy.HoursPerDay; start++ {
		if !inBoth[start] || inBoth[(start+policy.HoursPerDay-1)%policy.HoursPerDay] {
			continue // not the beginning of a run
		}
		l := 0
		for inBoth[(start+l)%policy.HoursPerDay] && l < policy.HoursPerDay {
			l++
		}
		if l > bestLen {
			bestStart, bestLen = start, l
		}
	}
	if bestLen == policy.HoursPerDay {
		return policy.AllDay(), true
	}
	return policy.TimeWindow{Start: bestStart, End: (bestStart + bestLen) % policy.HoursPerDay}, true
}

// mergeQoS merges two QoS specs per §4.1: for the same metric pick the
// better label; explicit bandwidth values take the max; min/max bandwidth
// must coexist after the merge.
func (c *Composer) mergeQoS(src, dst policy.EPG, a, b policy.QoS) (policy.QoS, *Conflict, bool) {
	out := policy.QoS{}
	var err error
	pickBetter := func(m labels.Metric, la, lb labels.Label) (labels.Label, error) {
		switch {
		case la == "":
			return lb, nil
		case lb == "":
			return la, nil
		default:
			return c.scheme.Max(m, la, lb)
		}
	}
	if out.MinBandwidth, err = pickBetter(labels.MinBandwidth, a.MinBandwidth, b.MinBandwidth); err != nil {
		return policy.QoS{}, conflictf(src, dst, BandwidthConflict, "min-bw merge: %v", err), false
	}
	if out.MaxBandwidth, err = pickBetter(labels.MaxBandwidth, a.MaxBandwidth, b.MaxBandwidth); err != nil {
		return policy.QoS{}, conflictf(src, dst, BandwidthConflict, "max-bw merge: %v", err), false
	}
	if out.Latency, err = pickBetter(labels.Latency, a.Latency, b.Latency); err != nil {
		return policy.QoS{}, conflictf(src, dst, BandwidthConflict, "latency merge: %v", err), false
	}
	if out.Jitter, err = pickBetter(labels.Jitter, a.Jitter, b.Jitter); err != nil {
		return policy.QoS{}, conflictf(src, dst, BandwidthConflict, "jitter merge: %v", err), false
	}
	if a.BandwidthMbps > out.BandwidthMbps {
		out.BandwidthMbps = a.BandwidthMbps
	}
	if b.BandwidthMbps > out.BandwidthMbps {
		out.BandwidthMbps = b.BandwidthMbps
	}
	// Fig 8b / §2.1: after max-merging, the guaranteed minimum must not
	// exceed the allowed maximum; otherwise the metrics cannot coexist and
	// the conflict resolution is to reject the composed edge and let the
	// writers negotiate (§4.1).
	if out.MinBandwidth != "" && out.MaxBandwidth != "" {
		ok, err := c.scheme.Compatible(out.MinBandwidth, out.MaxBandwidth)
		if err != nil {
			return policy.QoS{}, conflictf(src, dst, BandwidthConflict, "compatibility: %v", err), false
		}
		if !ok {
			return policy.QoS{}, conflictf(src, dst, BandwidthConflict,
				"min b/w %s exceeds max b/w %s", out.MinBandwidth, out.MaxBandwidth), false
		}
	}
	if out.MaxBandwidth != "" && out.BandwidthMbps > 0 {
		maxV, err := c.scheme.Value(labels.MaxBandwidth, out.MaxBandwidth)
		if err == nil && out.BandwidthMbps > maxV {
			return policy.QoS{}, conflictf(src, dst, BandwidthConflict,
				"min b/w %g Mbps exceeds max b/w %s", out.BandwidthMbps, out.MaxBandwidth), false
		}
	}
	return out, nil, true
}

func conflictf(src, dst policy.EPG, kind ConflictKind, format string, args ...any) *Conflict {
	return &Conflict{Kind: kind, Src: src.Key(), Dst: dst.Key(), Detail: fmt.Sprintf(format, args...)}
}

func pickDefault(edges []policy.Edge) int {
	for i, e := range edges {
		if e.Default {
			return i
		}
	}
	for i, e := range edges {
		if e.Cond.IsStatic() {
			return i
		}
	}
	// Purely dynamic policy: the edge active earliest in the day (or with
	// the always-true stateful condition) serves as default.
	best := 0
	for i, e := range edges {
		if e.Cond.Stateful.IsAlways() && !edges[best].Cond.Stateful.IsAlways() {
			best = i
			continue
		}
		if e.Cond.Stateful.IsAlways() == edges[best].Cond.Stateful.IsAlways() &&
			e.Cond.Window.Start < edges[best].Cond.Window.Start {
			best = i
		}
	}
	return best
}

func dedupeEdges(in []policy.Edge) []policy.Edge {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, e := range in {
		k := e.String() + "|" + fmt.Sprint(e.Default)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}
