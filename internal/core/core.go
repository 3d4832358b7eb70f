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
	"math/rand"
	"sort"
	"time"

	"janus/internal/compose"
	"janus/internal/labels"
	"janus/internal/lp"
	"janus/internal/milp"
	"janus/internal/paths"
	"janus/internal/topo"
)

// Config holds the configurator's tunables. The zero value gets sensible
// defaults from (*Config).withDefaults.
type Config struct {
	// Scheme resolves QoS labels; nil means labels.Default().
	Scheme *labels.Scheme
	// CandidatePaths is k, the number of random candidate paths per
	// endpoint pair (§5.2). 0 means all valid paths — the full-ILP
	// baseline the paper compares against.
	CandidatePaths int
	// ShortestFirst selects candidates by hop count instead of randomly
	// (ablation of the paper's random-subset choice).
	ShortestFirst bool
	// Lambda is the soft-constraint penalty λ for unreserved non-default
	// stateful edges (Eqn 6). Default 0.2 (§7.3).
	Lambda float64
	// Rho is the path-change penalty ρ (Eqn 8). Default 0.2 (§7.4).
	Rho float64
	// Seed drives candidate-path randomness.
	Seed int64
	// MaxPathsPerPair caps exhaustive enumeration (0 = enumerator default).
	MaxPathsPerPair int
	// JitterQueueCap is PR: the number of policies allowed per priority
	// level per switch (Eqn 10). 0 disables jitter constraints.
	JitterQueueCap int
	// DisableReservations turns off soft reservation of non-default edges
	// (ablation; §5.3 on by default).
	DisableReservations bool
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
	RelGap    float64
	Branching milp.BranchRule
	// StallNodes stops the search after this many nodes without incumbent
	// improvement (0 = a default of 600; negative = disabled). Applied
	// identically to ILP and heuristic modes, so comparisons stay fair.
	StallNodes int
	// Workers is the branch-and-bound worker count per solve (0 =
	// GOMAXPROCS). It also bounds the period fan-out of
	// ConfigureTemporalIndependent, so total solver concurrency stays
	// proportional to the machine rather than to the period count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Scheme == nil {
		c.Scheme = labels.Default()
	}
	if c.Lambda == 0 { //janus:allow(floatcmp): zero-value config sentinel meaning "unset", never a computed float
		c.Lambda = 0.2
	}
	if c.Rho == 0 { //janus:allow(floatcmp): zero-value config sentinel meaning "unset", never a computed float
		c.Rho = 0.2
	}
	// The branch-and-bound gap tolerance: the paper's objective counts
	// satisfied policies, so a small relative gap (well under one policy's
	// normalized weight on typical instances) keeps counts honest while
	// avoiding exhaustive proofs. ILP and heuristic modes share the same
	// tolerance, keeping comparisons fair.
	if c.RelGap == 0 { //janus:allow(floatcmp): zero-value config sentinel meaning "unset", never a computed float
		c.RelGap = 0.02
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
	rng    *rand.Rand
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
	e := paths.NewEnumerator(t)
	e.MaxPaths = cfg.MaxPathsPerPair
	return &Configurator{
		topo:   t,
		graph:  g,
		cfg:    cfg,
		enum:   e,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		scheme: cfg.Scheme,
	}, nil
}

// Topology returns the bound topology.
func (c *Configurator) Topology() *topo.Topology { return c.topo }

// Graph returns the bound composed graph.
func (c *Configurator) Graph() *compose.Graph { return c.graph }

// InvalidatePaths drops the path cache; call after topology changes
// (endpoint mobility does not change paths, but link changes do).
func (c *Configurator) InvalidatePaths() { c.enum.InvalidateCache() }

// InvalidateLinkPaths drops only the cached path enumerations that crossed
// the removed link (a, b) — exact selective invalidation for link
// failures, keeping the candidate-path cache warm for unaffected pairs.
// Link additions must use InvalidatePaths: a new link can create paths
// for any pair.
func (c *Configurator) InvalidateLinkPaths(a, b topo.NodeID) { c.enum.InvalidateLink(a, b) }

// DeltaEnabled reports whether incremental (delta) reconfiguration is on.
func (c *Configurator) DeltaEnabled() bool { return !c.cfg.DeltaDisable }

// EdgeRole classifies how an edge enters the optimization at a time period.
type EdgeRole int

// Edge roles in a period model.
const (
	// HardEdge must be configured for the policy to count as satisfied
	// (default edges and pure-temporal edges active in the period; Eqn 2).
	HardEdge EdgeRole = iota
	// SoftEdge is reserved best-effort via the slack ξ (stateful
	// escalation edges; Eqn 4).
	SoftEdge
)

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

// Key identifies the assignment slot (not the chosen path). Hard slots are
// keyed by (policy, pair) without the edge index: a temporal policy's
// active edge differs across periods (Fig 6), but if the new period's path
// equals the old one, no switch rules move — that continuity is exactly
// what the Eqn 7–8 penalties and the path-change metric must see. Soft
// (reserved) slots keep the edge index, since one pair can hold several
// reservations at once.
func (a Assignment) Key() string {
	if a.Role == HardEdge {
		return fmt.Sprintf("h/%d/%s/%s", a.Policy, a.Src, a.Dst)
	}
	return fmt.Sprintf("s/%d/%d/%s/%s", a.Policy, a.EdgeIdx, a.Src, a.Dst)
}

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
	// TierFull is a proven-optimal (within RelGap) solve.
	TierFull DegradationTier = iota
	// TierIncumbent served the best incumbent after a node/time/stall
	// limit stopped the optimality proof.
	TierIncumbent
	// TierLPRound served a rounded LP relaxation because branch and bound
	// found no incumbent within its budget.
	TierLPRound
	// TierKeepPrevious kept the previous period's configuration untouched:
	// the solve failed outright and serving stale paths beats serving none.
	TierKeepPrevious
	// TierNone is the empty configuration: the solve failed and there was
	// no previous configuration to fall back to.
	TierNone
)

func (t DegradationTier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierIncumbent:
		return "incumbent"
	case TierLPRound:
		return "lp-round"
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
func (t DegradationTier) Degraded() bool { return t >= TierLPRound }

// Stats aggregates solver effort.
type Stats struct {
	Variables    int
	Constraints  int
	Nodes        int
	LPIterations int
	// Refactorizations counts LP basis refactorizations across every node
	// solve; near-zero per node means warm starts reused the retained
	// factorization.
	Refactorizations int
	// PricingSwitches counts candidate-list pricing exhaustions that fell
	// back to a full Dantzig scan across every node solve.
	PricingSwitches int
	// Workers is the branch-and-bound worker count that served the solve.
	Workers  int
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

// AssignmentFor returns the hard-edge path configured for a (policy, pair),
// or ok=false.
func (r *Result) AssignmentFor(pid int, src, dst string) (Assignment, bool) {
	for _, a := range r.Assignments {
		if a.Policy == pid && a.Src == src && a.Dst == dst && a.Role == HardEdge {
			return a, true
		}
	}
	return Assignment{}, false
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
	nextPath := make(map[string]string, len(next.Assignments))
	for _, a := range next.Assignments {
		nextPath[a.Key()] = a.Path.Key()
	}
	changes := 0
	for _, a := range prev.Assignments {
		if nextPath[a.Key()] != a.Path.Key() {
			changes++
		}
	}
	return changes
}
