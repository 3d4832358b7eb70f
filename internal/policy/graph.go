package policy

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Edge is a directed policy edge between two EPGs: "Src may talk to Dst for
// traffic matching Match, via the Chain, with the given QoS, while Cond is
// active" (§4, Fig 9a). A stateful policy has one default edge plus
// non-default edges for escalation states (§5.3).
type Edge struct {
	Src   string     `json:"src"` // EPG name within the graph
	Dst   string     `json:"dst"`
	Match Classifier `json:"match,omitempty"`
	Chain Chain      `json:"chain,omitempty"`
	QoS   QoS        `json:"qos,omitempty"`
	Cond  Condition  `json:"cond,omitempty"`
	// Default marks the edge carrying normal traffic of a stateful policy
	// (§5.3). Static edges are implicitly default.
	Default bool `json:"default,omitempty"`
	// Origins counts the input-graph edges merged into this edge during
	// composition (zero means 1, an un-composed edge). When several edges
	// of one composed policy are active simultaneously, the edge merged
	// from the most writers carries the traffic (§4.2: traffic satisfying
	// both dynamic policies goes through the composed policy).
	Origins int `json:"origins,omitempty"`
}

// OriginCount returns Origins, defaulting to 1.
func (e Edge) OriginCount() int {
	if e.Origins <= 0 {
		return 1
	}
	return e.Origins
}

// String renders the edge in the paper's arrow notation.
func (e Edge) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s -> %s", e.Src, e.Dst)
	if !e.Match.MatchAll() {
		fmt.Fprintf(&b, " [%s]", e.Match)
	}
	if len(e.Chain) > 0 {
		fmt.Fprintf(&b, " via %s", e.Chain)
	}
	if !e.QoS.IsZero() {
		fmt.Fprintf(&b, " {%s}", e.QoS)
	}
	if !e.Cond.IsStatic() {
		fmt.Fprintf(&b, " when %s", e.Cond)
	}
	return b.String()
}

// Graph is one policy writer's input policy graph (§4): EPG nodes plus
// directed edges carrying classifiers, chains, QoS and dynamic conditions.
type Graph struct {
	// Name identifies the graph (the writer or application).
	Name string `json:"name"`
	// Weight is the priority of every policy in this graph (W_i in Eqn 1);
	// zero means weight 1.
	Weight float64 `json:"weight,omitempty"`
	EPGs   []EPG   `json:"epgs"`
	Edges  []Edge  `json:"edges"`
}

// NewGraph returns an empty policy graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// AddEPG adds (or replaces, by name) an EPG node.
func (g *Graph) AddEPG(e EPG) *Graph {
	for i, prev := range g.EPGs {
		if prev.Name == e.Name {
			g.EPGs[i] = e
			return g
		}
	}
	g.EPGs = append(g.EPGs, e)
	return g
}

// AddEdge appends an edge, implicitly declaring plain EPGs for unknown
// endpoint names.
func (g *Graph) AddEdge(e Edge) *Graph {
	if g.epg(e.Src) == nil {
		g.AddEPG(NewEPG(e.Src))
	}
	if g.epg(e.Dst) == nil {
		g.AddEPG(NewEPG(e.Dst))
	}
	g.Edges = append(g.Edges, e)
	return g
}

func (g *Graph) epg(name string) *EPG {
	for i := range g.EPGs {
		if g.EPGs[i].Name == name {
			return &g.EPGs[i]
		}
	}
	return nil
}

// EPGByName returns the named EPG, or ok=false.
func (g *Graph) EPGByName(name string) (EPG, bool) {
	if p := g.epg(name); p != nil {
		return *p, true
	}
	return EPG{}, false
}

// EffectiveWeight returns the graph weight, defaulting to 1.
func (g *Graph) EffectiveWeight() float64 {
	if g.Weight <= 0 {
		return 1
	}
	return g.Weight
}

// Validate checks structural invariants: named graph, well-formed EPGs,
// edges referencing declared EPGs, valid time windows, satisfiable
// conditions, and at most one default edge per (src,dst) pair.
func (g *Graph) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("policy: graph has no name")
	}
	seen := make(map[string]bool, len(g.EPGs))
	for _, e := range g.EPGs {
		if e.Name == "" {
			return fmt.Errorf("policy: graph %q: EPG with empty name", g.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("policy: graph %q: duplicate EPG %q", g.Name, e.Name)
		}
		seen[e.Name] = true
		if len(e.Labels) == 0 {
			return fmt.Errorf("policy: graph %q: EPG %q has no labels", g.Name, e.Name)
		}
	}
	defaults := make(map[string]int)
	for i, e := range g.Edges {
		if !seen[e.Src] {
			return fmt.Errorf("policy: graph %q: edge %d references unknown src EPG %q", g.Name, i, e.Src)
		}
		if !seen[e.Dst] {
			return fmt.Errorf("policy: graph %q: edge %d references unknown dst EPG %q", g.Name, i, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("policy: graph %q: edge %d is a self-loop on %q", g.Name, i, e.Src)
		}
		if err := e.Cond.Window.Validate(); err != nil {
			return fmt.Errorf("policy: graph %q: edge %d: %w", g.Name, i, err)
		}
		for ev, r := range e.Cond.Stateful.Ranges {
			if r.Empty() {
				return fmt.Errorf("policy: graph %q: edge %d: empty range for event %q", g.Name, i, ev)
			}
			if r.Lo < 0 {
				return fmt.Errorf("policy: graph %q: edge %d: negative range for event %q", g.Name, i, ev)
			}
		}
		if e.QoS.MinBandwidth != "" && e.QoS.MaxBandwidth != "" {
			// Conflicting min/max within one edge is a writer error caught
			// early; cross-writer conflicts are handled during composition.
			// Levels are comparable because Default-style schemes share the
			// label order across the bandwidth pair.
			if e.QoS.BandwidthMbps > 0 {
				return fmt.Errorf("policy: graph %q: edge %d: explicit bandwidth with max-bw label", g.Name, i)
			}
		}
		if e.Default || e.Cond.IsStatic() {
			key := e.Src + "->" + e.Dst
			defaults[key]++
			if defaults[key] > 1 {
				return fmt.Errorf("policy: graph %q: multiple default edges for %s", g.Name, key)
			}
		}
	}
	return nil
}

// Periods returns the sorted hour boundaries at which this graph's temporal
// conditions change, always including hour 0. A static graph returns [0].
func (g *Graph) Periods() []int {
	set := map[int]bool{0: true}
	for _, e := range g.Edges {
		w := e.Cond.Window
		if w.IsAllDay() {
			continue
		}
		set[w.Start%HoursPerDay] = true
		set[w.End%HoursPerDay] = true
	}
	out := make([]int, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// MarshalJSON/UnmarshalJSON use the plain struct encoding; defined here so
// the round-trip contract is explicit and tested.
func (g *Graph) MarshalJSON() ([]byte, error) {
	type alias Graph
	return json.Marshal((*alias)(g))
}

// UnmarshalJSON decodes and validates the graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	type alias Graph
	if err := json.Unmarshal(data, (*alias)(g)); err != nil {
		return fmt.Errorf("policy: decoding graph: %w", err)
	}
	return g.Validate()
}
