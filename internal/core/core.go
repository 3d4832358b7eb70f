// Package core implements the Janus policy configurator (§5 of the paper):
// it synthesizes the dataplane configuration for a composed policy graph on
// a target topology by solving a 0/1 optimization problem whose primary
// objective is to maximize the weighted number of atomically-configured
// group policies (Eqns 1–3) and whose secondary objectives reserve paths
// for stateful escalations (Eqns 4–6, soft constraints weighted by λ) and
// minimize path changes under dynamics (Eqns 7–8, weighted by ρ).
//
// Temporal policies are configured by a greedy per-time-period chain of
// solves (§5.5), with a joint-optimization baseline (Eqn 9), and a
// bandwidth negotiation pass (§5.6) that shifts bandwidth of
// bottleneck-heavy policies into less-contended periods using LP
// sensitivity (link shadow prices).
package core

import (
	"fmt"
	"sort"
	"time"

	"janus/internal/compose"
	"janus/internal/labels"
	"janus/internal/lp"
	"janus/internal/milp"
	"janus/internal/paths"
	"janus/internal/policy"
	"janus/internal/topo"
)

// Config holds the configurator's tunables. The zero value gets sensible
// defaults from Config.withDefaults.
type Config struct {
	// Scheme resolves QoS labels; nil means labels.Default().
	Scheme *labels.Scheme
	// CandidatePaths is k, the number of random candidate paths per
	// endpoint pair (§5.2). 0 means all valid paths — the full-ILP
	// baseline the paper compares against.
	CandidatePaths int
	// Lambda is the soft-constraint penalty λ for unreserved non-default
	// stateful edges (Eqn 6). Default 0.2 (§7.3).
	Lambda float64
	// Seed drives candidate-path randomness.
	Seed int64
	// JitterQueueCap is PR: the number of policies allowed per priority
	// level per switch (Eqn 10). 0 disables jitter constraints.
	JitterQueueCap int
	// DeltaDisable turns off incremental (delta) reconfiguration: runtime
	// events then always rebuild and re-solve the full period model. The
	// zero value leaves delta solving on — the optimality guard, the
	// freeze-validity widening, and the runtime's post-install self-audit
	// bound how far an incremental result can drift from a full solve.
	DeltaDisable bool
	// DeltaMaxSatisfiedDrop is the optimality guard for delta solves: when
	// the merged result satisfies more than this many fewer policies than
	// the previous result did (over the currently active set), the delta
	// result is discarded and the caller falls back to a full re-solve.
	// 0 means a default of 1; negative means 0 (any drop falls back).
	DeltaMaxSatisfiedDrop int

	// Solver limits, forwarded to branch & bound.
	MaxNodes  int
	TimeLimit time.Duration
	// StallNodes stops the search after this many nodes without incumbent
	// improvement (0 = a default of 60; negative = disabled). Applied
	// identically to ILP and heuristic modes, so comparisons stay fair.
	StallNodes int
	// Workers is the branch-and-bound worker count per solve (0 =
	// GOMAXPROCS). It also bounds the period fan-out of
	// ConfigureTemporalIndependent, so total solver concurrency stays
	// proportional to the machine rather than to the period count.
	Workers int
}

const (
	// rho is the path-change penalty ρ (Eqn 8), the paper's 0.2 (§7.4).
	rho = 0.2
	// relGap is the branch-and-bound gap tolerance: the paper's objective
	// counts satisfied policies, so a small relative gap (well under one
	// policy's normalized weight on typical instances) keeps counts honest
	// while avoiding exhaustive proofs. ILP and heuristic modes share the
	// same tolerance, keeping comparisons fair.
	relGap = 0.02
)

func (c Config) withDefaults() Config {
	if c.Scheme == nil {
		c.Scheme = labels.Default()
	}
	if c.Lambda == 0 { //janus:allow(floatcmp): zero-value config sentinel meaning "unset", never a computed float
		c.Lambda = 0.2
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 10000
	}
	// Contended instances can be proof-hard for branch and bound; the
	// greedy start plus root rounding provide good incumbents early, so a
	// bounded search keeps runtimes predictable. Negative means unlimited.
	if c.TimeLimit == 0 {
		c.TimeLimit = 30 * time.Second
	} else if c.TimeLimit < 0 {
		c.TimeLimit = 0
	}
	// On weak-bound subset models the incumbent comes almost entirely from
	// the greedy start and root rounding; a short stall window stops the
	// search once improvement dries up.
	if c.StallNodes == 0 {
		c.StallNodes = 60
	} else if c.StallNodes < 0 {
		c.StallNodes = 0
	}
	if c.DeltaMaxSatisfiedDrop == 0 {
		c.DeltaMaxSatisfiedDrop = 1
	} else if c.DeltaMaxSatisfiedDrop < 0 {
		c.DeltaMaxSatisfiedDrop = 0
	}
	return c
}

// Configurator binds a composed policy graph to a topology and produces
// dataplane configurations.
type Configurator struct {
	topo   *topo.Topology
	graph  *compose.Graph
	cfg    Config
	enum   *paths.Enumerator
	scheme *labels.Scheme
}

// New builds a Configurator. The topology must be structurally valid and
// carry the endpoints referenced by the composed graph's EPGs. Connectivity
// is not required — a runtime that quarantined a switch reconfigures (and
// restores from the durable store) over a legitimately disconnected
// topology; flows that lost all paths surface as solver degradation, not a
// construction error.
func New(t *topo.Topology, g *compose.Graph, cfg Config) (*Configurator, error) {
	if err := t.ValidateStructure(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg = cfg.withDefaults()
	return &Configurator{
		topo:   t,
		graph:  g,
		cfg:    cfg,
		enum:   paths.NewPoolEnumerator(t, cfg.CandidatePaths),
		scheme: cfg.Scheme,
	}, nil
}

// Rebind returns a configurator for graph g and cfg on c's topology. It
// keeps c's path cache when cfg keeps the candidate count: a cached pool
// depends only on the topology and the chain, and each model build drops
// the entries no live pair uses.
func (c *Configurator) Rebind(g *compose.Graph, cfg Config) (*Configurator, error) {
	n, err := New(c.topo, g, cfg)
	if err != nil {
		return nil, err
	}
	if n.cfg.CandidatePaths == c.cfg.CandidatePaths {
		n.enum = c.enum
	}
	return n, nil
}

// Topology returns the bound topology.
func (c *Configurator) Topology() *topo.Topology { return c.topo }

// Graph returns the bound composed graph.
func (c *Configurator) Graph() *compose.Graph { return c.graph }

// InvalidatePaths drops the path cache; call after a link addition, which
// can add or shorten paths for any pair. Endpoint moves and relabels need
// no call: each model build drops the entries no current pair uses.
func (c *Configurator) InvalidatePaths() { c.enum.InvalidateCache() }

// InvalidateLinkPaths drops only the cached path enumerations that crossed
// the removed link (a, b), which is exact for link failures. Link
// additions must use InvalidatePaths.
func (c *Configurator) InvalidateLinkPaths(a, b topo.NodeID) { c.enum.InvalidateLink(a, b) }

// PathCacheLen returns how many (src, dst, chain) entries the path cache
// holds and how many product distance tables its search prunes with.
func (c *Configurator) PathCacheLen() (entries, tables int) { return c.enum.CacheLen() }

// DeltaEnabled reports whether incremental (delta) reconfiguration is on.
func (c *Configurator) DeltaEnabled() bool { return !c.cfg.DeltaDisable }

// EdgeRole classifies how an edge enters the optimization at a time period.
type EdgeRole int

// Edge roles in a period model.
const (
	// HardEdge must be configured for the policy to count as satisfied
	// (default edges and pure-temporal edges active in the period, or the
	// escalation edge a pair's counters made active; Eqn 2).
	HardEdge EdgeRole = iota
	// SoftEdge is reserved best-effort via the slack ξ (stateful
	// escalation edges, and the other edges of an escalated pair; Eqn 4).
	SoftEdge
)

// Counters holds each flow's stateful event counts, keyed by FlowKey: the
// state a solve serves (§5.3). A nil map, or a flow without an entry, is
// normal traffic.
type Counters map[string]map[policy.Event]int

// FlowKey is the Counters key of the flow from endpoint src to dst.
func FlowKey(src, dst string) string { return src + "->" + dst }

// Assignment is one configured path: policy pid's edge (by index into
// Policy.AllEdges()) for endpoint pair (Src, Dst) uses Path.
type Assignment struct {
	Policy  int
	EdgeIdx int
	Role    EdgeRole
	Src     string // endpoint name
	Dst     string
	Path    paths.Path
	BW      float64 // Mbps reserved on each link of Path
}

// slot is the one identity of an assignment slot, the rule Eqns 7–9 and
// the path-change metric share: the same slot keeping its path is not a
// change. A hard slot is (policy, pair) without the edge index: a temporal
// policy's active edge differs across periods (Fig 6), but if the new
// period's path equals the old one, no switch rules move. A soft
// (reserved) slot keeps the edge index, since one pair can hold several
// reservations at once. Slots compare with ==.
type slot struct {
	pid      int
	role     EdgeRole
	edgeIdx  int // soft slots only; 0 for every hard slot
	src, dst string
}

func slotOf(pid, edgeIdx int, role EdgeRole, src, dst string) slot {
	if role == HardEdge {
		edgeIdx = 0
	}
	return slot{pid: pid, role: role, edgeIdx: edgeIdx, src: src, dst: dst}
}

func (a Assignment) slot() slot { return slotOf(a.Policy, a.EdgeIdx, a.Role, a.Src, a.Dst) }

// LinkUse reports a link's reserved bandwidth and shadow price.
type LinkUse struct {
	From, To topo.NodeID
	Capacity float64
	Reserved float64
	// ShadowPrice is the dual of the link's capacity row in the root LP
	// relaxation; positive values mark bottlenecks (§5.6).
	ShadowPrice float64
}

// DegradationTier records which rung of the solver degradation ladder
// served a configuration. A production controller cannot return "no
// config" when a solve blows its deadline: it falls through progressively
// cheaper answers, trading optimality for availability.
type DegradationTier int

// Degradation ladder rungs, best first.
const (
	// TierFull is a proven-optimal (within relGap) solve.
	TierFull DegradationTier = iota
	// TierIncumbent served the best incumbent after a node/time/stall
	// limit stopped the optimality proof.
	TierIncumbent
	// TierKeepPrevious kept the previous period's configuration untouched:
	// the search found no incumbent and serving stale paths beats serving
	// none. Results are journaled with their tier as an integer, so the
	// two last rungs keep the values 3 and 4 they have always had.
	TierKeepPrevious DegradationTier = 3
	// TierNone is the empty configuration: the search found no incumbent
	// and there was no previous configuration to fall back to.
	TierNone DegradationTier = 4
)

func (t DegradationTier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierIncumbent:
		return "incumbent"
	case TierKeepPrevious:
		return "keep-previous"
	case TierNone:
		return "none"
	default:
		return fmt.Sprintf("DegradationTier(%d)", int(t))
	}
}

// Degraded reports whether the tier is below a normal solve (full or
// best-incumbent — the paper's heuristic accepts incumbents by design).
func (t DegradationTier) Degraded() bool { return t >= TierKeepPrevious }

// Stats aggregates solver effort.
type Stats struct {
	Variables   int
	Constraints int
	milp.Effort
	Duration time.Duration
}

// Result is the configuration of one time period.
type Result struct {
	// Period is the hour this configuration is valid from.
	Period int
	// Configured maps policy ID -> whether its hard edges were fully
	// configured (I_i = 1).
	Configured map[int]bool
	// SlackUsed maps policy ID -> true when ξ_i = 1, i.e. the non-default
	// reservation was given up (§5.3).
	SlackUsed map[int]bool
	// Assignments lists every configured path (hard and reserved soft).
	Assignments []Assignment
	// Objective is the solver objective (normalized weighted coverage
	// minus penalties).
	Objective float64
	// Links reports per-link reservation and shadow prices.
	Links []LinkUse
	// Status is the underlying MILP status.
	Status milp.Status
	// Tier records which rung of the degradation ladder produced this
	// result (full solve, best incumbent, rounded relaxation, or the
	// previous configuration kept verbatim).
	Tier  DegradationTier
	Stats Stats
	// Delta is non-nil when this result came from an incremental solve
	// that re-solved only the affected policies and carried every other
	// assignment over verbatim (nil for full solves).
	Delta *DeltaStats

	basis *lp.Basis
}

// SatisfiedCount returns the number of configured policies.
func (r *Result) SatisfiedCount() int {
	n := 0
	for _, ok := range r.Configured {
		if ok {
			n++
		}
	}
	return n
}

// Bottlenecks returns links with positive shadow price, most constrained
// first (§5.6 sensitivity analysis).
func (r *Result) Bottlenecks() []LinkUse {
	var out []LinkUse
	for _, l := range r.Links {
		if gtEps(l.ShadowPrice, 0) {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ShadowPrice > out[j].ShadowPrice })
	return out
}

// CountPathChanges counts assignment slots of prev whose path is no longer
// used in next: slots that changed path, plus slots that disappeared
// (policy violated or no longer active). This is the Σα metric of Eqn 7–8.
func CountPathChanges(prev, next *Result) int {
	if prev == nil {
		return 0
	}
	nextPath := make(map[slot]paths.Path, len(next.Assignments))
	for _, a := range next.Assignments {
		nextPath[a.slot()] = a.Path
	}
	changes := 0
	for _, a := range prev.Assignments {
		if p, ok := nextPath[a.slot()]; !ok || !p.Equal(a.Path) {
			changes++
		}
	}
	return changes
}
