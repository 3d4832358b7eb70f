package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"janus/internal/compose"
	"janus/internal/milp"
	"janus/internal/topo"
)

// This file implements incremental (delta) reconfiguration: instead of
// rebuilding and re-solving the whole period model on every runtime event,
// the configurator freezes every assignment the event cannot have touched,
// subtracts the frozen bandwidth from link capacities, and solves a
// sub-model over only the affected policies. Event cost then scales with
// the size of the change, not the network (DeltaPath makes the same
// argument for incremental routing). An optimality guard bounds the
// divergence from a full solve: a merged result that satisfies too few
// policies is discarded and the caller re-solves fully.

// DepIndex is the dependency index built from an installed result. It maps
// topology elements — links, nodes, endpoints — to the policies whose
// current assignments traverse them or whose endpoint pairs involve them,
// so runtime events can compute the affected policy set for a delta solve
// with a handful of map lookups.
type DepIndex struct {
	period      int
	byLink      map[[2]topo.NodeID]map[int]bool // normalized undirected
	byNode      map[topo.NodeID]map[int]bool
	byEndpoint  map[string]map[int]bool
	unsatisfied map[int]bool // active in the period but not configured
	slackUsed   map[int]bool // ξ_i = 1: the soft reservation was given up
	active      int
}

// BuildDepIndex indexes an installed result against its topology and
// composed graph. Rebuild it whenever the installed result, the topology,
// or the graph changes — a stale index yields wrong affected sets.
func BuildDepIndex(t *topo.Topology, g *compose.Graph, res *Result) *DepIndex {
	ix := &DepIndex{
		period:      res.Period,
		byLink:      map[[2]topo.NodeID]map[int]bool{},
		byNode:      map[topo.NodeID]map[int]bool{},
		byEndpoint:  map[string]map[int]bool{},
		unsatisfied: map[int]bool{},
		slackUsed:   map[int]bool{},
	}
	for _, p := range g.Policies {
		hard, _ := activeEdges(p, res.Period)
		if len(hard) == 0 {
			continue
		}
		pairs := pairsOn(t, p)
		if len(pairs) == 0 {
			continue
		}
		ix.active++
		for _, pair := range pairs {
			addDep(ix.byEndpoint, pair[0], p.ID)
			addDep(ix.byEndpoint, pair[1], p.ID)
		}
		if !res.Configured[p.ID] {
			ix.unsatisfied[p.ID] = true
		}
		if res.SlackUsed[p.ID] {
			ix.slackUsed[p.ID] = true
		}
	}
	for _, a := range res.Assignments {
		for _, l := range a.Path.Links() {
			addDep(ix.byLink, normLink(l[0], l[1]), a.Policy)
		}
		for _, n := range a.Path.Nodes {
			addDep(ix.byNode, n, a.Policy)
		}
	}
	return ix
}

func addDep[K comparable](m map[K]map[int]bool, k K, pid int) {
	s := m[k]
	if s == nil {
		s = make(map[int]bool)
		m[k] = s
	}
	s[pid] = true
}

// normLink normalizes an undirected link to a map key.
func normLink(a, b topo.NodeID) [2]topo.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topo.NodeID{a, b}
}

// Period returns the period the index was built for.
func (ix *DepIndex) Period() int { return ix.period }

// ActivePolicies returns the number of policies active in the indexed
// period.
func (ix *DepIndex) ActivePolicies() int { return ix.active }

// AffectedByLink merges into out the policies whose assignments traverse
// link (a, b) in either direction.
//
//janus:hotpath
func (ix *DepIndex) AffectedByLink(a, b topo.NodeID, out map[int]bool) {
	if a > b {
		a, b = b, a
	}
	for pid := range ix.byLink[[2]topo.NodeID{a, b}] {
		out[pid] = true
	}
}

// AffectedByNode merges into out the policies whose assignments traverse
// the node (any path through a switch also crosses every link incident to
// it that the path uses, so quarantining a switch only needs this set).
//
//janus:hotpath
func (ix *DepIndex) AffectedByNode(n topo.NodeID, out map[int]bool) {
	for pid := range ix.byNode[n] {
		out[pid] = true
	}
}

// AffectedByEndpoint merges into out the policies whose endpoint pairs
// involve the named endpoint.
//
//janus:hotpath
func (ix *DepIndex) AffectedByEndpoint(name string, out map[int]bool) {
	for pid := range ix.byEndpoint[name] {
		out[pid] = true
	}
}

// AffectedUnsatisfied merges into out the policies that were active but
// unconfigured — the candidates to retry when capacity comes back.
//
//janus:hotpath
func (ix *DepIndex) AffectedUnsatisfied(out map[int]bool) {
	for pid := range ix.unsatisfied {
		out[pid] = true
	}
}

// AffectedSlackUsed merges into out the policies whose soft reservation
// was given up (ξ_i = 1) — the candidates to re-reserve when capacity
// comes back.
//
//janus:hotpath
func (ix *DepIndex) AffectedSlackUsed(out map[int]bool) {
	for pid := range ix.slackUsed {
		out[pid] = true
	}
}

// TemporalAffected returns the policies whose active edge sets differ
// between the two periods (time windows opening or closing at the
// boundary) — the seed affected set for a period-transition delta solve.
func (c *Configurator) TemporalAffected(prevPeriod, period int) map[int]bool {
	out := map[int]bool{}
	for _, p := range c.graph.Policies {
		ph, ps := activeEdges(p, prevPeriod)
		nh, ns := activeEdges(p, period)
		if !intsEqual(ph, nh) || !intsEqual(ps, ns) {
			out[p.ID] = true
		}
	}
	return out
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DeltaStats records how an incremental solve produced a result.
type DeltaStats struct {
	// Affected is the number of policies the sub-model re-solved; Frozen
	// is the number whose previous assignments were carried over verbatim.
	Affected int
	Frozen   int
}

// DeltaRequest scopes an incremental reconfiguration: the period to solve
// and the policies the triggering event may have affected. The solver
// widens the set with policies whose frozen assignments would be unsound
// (stale links, changed endpoint pairs, changed active edges).
type DeltaRequest struct {
	Period   int
	Affected map[int]bool
}

// ErrDeltaFallback is the sentinel wrapped by delta-solve errors that mean
// "no incremental result; run the full re-solve": guard trips, degraded
// sub-model solves, oversized affected sets. Errors not matching it —
// context cancellation chief among them — are real failures and must not
// trigger a fallback solve.
var ErrDeltaFallback = errors.New("delta fallback")

func deltaFallback(format string, args ...any) error {
	return fmt.Errorf("core: %w: "+format, append([]any{ErrDeltaFallback}, args...)...)
}

// deltaMaxAffectedFrac is the affected share of active policies above which
// the delta path is skipped: re-solving most of the model through the
// sub-model costs about as much as a warm-started full solve while
// forgoing its global view.
const deltaMaxAffectedFrac = 0.6

// DeltaReconfigureContext re-solves only the policies an event affected,
// carrying every other assignment of prev over verbatim. Frozen
// assignments keep their exact paths (zero rule churn, zero path-change
// penalty by construction); their bandwidth is subtracted from link
// capacities so the sub-model packs the affected policies into genuinely
// residual headroom. Returns an error wrapping ErrDeltaFallback whenever a
// full re-solve should run instead.
func (c *Configurator) DeltaReconfigureContext(ctx context.Context, prev *Result, req DeltaRequest) (*Result, error) {
	if prev == nil {
		return nil, deltaFallback("no previous result")
	}
	start := time.Now()
	affected := make(map[int]bool, len(req.Affected))
	for pid := range req.Affected {
		affected[pid] = true
	}

	pols := append([]*compose.Policy(nil), c.graph.Policies...)
	sort.Slice(pols, func(i, j int) bool { return pols[i].ID < pols[j].ID })

	// Classify every policy active in the period: affected (re-solved by
	// the sub-model) or freeze candidates. A candidate is widened into the
	// affected set when its previous state cannot be carried soundly:
	// active edges changed across the period boundary, no previous entry
	// exists, or freezeValid rejects its assignments.
	type frozenPolicy struct {
		pid        int
		weight     float64
		configured bool
		slack      bool
		hasSlack   bool
	}
	var candidates []frozenPolicy
	active := 0
	pairsByPid := map[int][][2]string{}
	weightByPid := map[int]float64{}
	for _, p := range pols {
		hard, soft := activeEdges(p, req.Period)
		if len(hard) == 0 {
			continue
		}
		pairs := pairsOn(c.topo, p)
		if len(pairs) == 0 {
			continue
		}
		active++
		pairsByPid[p.ID] = pairs
		weightByPid[p.ID] = p.Weight
		if affected[p.ID] {
			continue
		}
		ph, ps := activeEdges(p, prev.Period)
		if !intsEqual(ph, hard) || !intsEqual(ps, soft) {
			affected[p.ID] = true // the boundary changed its edge set
			continue
		}
		cfg, inPrev := prev.Configured[p.ID]
		if !inPrev {
			affected[p.ID] = true // newly active: nothing to freeze
			continue
		}
		slack, hasSlack := prev.SlackUsed[p.ID]
		candidates = append(candidates, frozenPolicy{
			pid: p.ID, weight: p.Weight, configured: cfg,
			slack: slack, hasSlack: hasSlack,
		})
	}
	if active == 0 {
		return nil, deltaFallback("no active policies in period %d", req.Period)
	}

	prevByPid := map[int][]Assignment{}
	for _, a := range prev.Assignments {
		prevByPid[a.Policy] = append(prevByPid[a.Policy], a)
	}
	frozen := candidates[:0]
	var frozenAssigns []Assignment
	for _, f := range candidates {
		if !freezeValid(c.topo, pairsByPid[f.pid], f.configured, prevByPid[f.pid]) {
			affected[f.pid] = true
			continue
		}
		frozen = append(frozen, f)
		frozenAssigns = append(frozenAssigns, prevByPid[f.pid]...)
	}

	// The affected share gate: when the event touched most of the model, a
	// warm-started full solve is at least as cheap and strictly better
	// informed.
	affectedActive := 0
	for pid := range affected {
		if _, ok := pairsByPid[pid]; ok {
			affectedActive++
		}
	}
	if float64(affectedActive) > deltaMaxAffectedFrac*float64(active) {
		return nil, deltaFallback("affected %d of %d active policies exceeds the delta share bound", affectedActive, active)
	}

	// Residual capacities: full capacity minus the bandwidth frozen
	// assignments hold, per directed link, clamped at zero (a link can be
	// legitimately oversubscribed transiently after capacity loss).
	residual := map[[2]topo.NodeID]float64{}
	for _, a := range frozenAssigns {
		for _, l := range a.Path.Links() {
			if _, seen := residual[l]; !seen {
				capacity, ok := c.topo.LinkCapacity(l[0], l[1])
				if !ok {
					return nil, deltaFallback("frozen path uses nonexistent link %v", l)
				}
				residual[l] = capacity
			}
			residual[l] -= a.BW
		}
	}
	for l, rc := range residual {
		if rc < 0 {
			residual[l] = 0
		}
	}

	// Solve the sub-model over the affected policies. Previous assignments
	// of affected policies still feed the ρ path-change penalty and the
	// greedy start, so an affected policy that can keep its path does.
	scopeSet := make(map[int]bool, affectedActive)
	var prevAffAssign []Assignment
	for pid := range affected {
		if _, ok := pairsByPid[pid]; ok {
			scopeSet[pid] = true
			prevAffAssign = append(prevAffAssign, prevByPid[pid]...)
		}
	}
	sort.Slice(prevAffAssign, func(i, j int) bool {
		ki, kj := prevAffAssign[i].Key(), prevAffAssign[j].Key()
		if ki != kj {
			return ki < kj
		}
		return prevAffAssign[i].Path.Key() < prevAffAssign[j].Path.Key()
	})

	var sub *Result
	if affectedActive == 0 {
		// Nothing active is affected (e.g. a move of an endpoint no policy
		// references): the merged result is the frozen state verbatim.
		sub = &Result{
			Period:     req.Period,
			Configured: map[int]bool{},
			SlackUsed:  map[int]bool{},
			Status:     milp.Optimal,
			Tier:       TierFull,
		}
	} else {
		m, err := c.buildModelScoped(req.Period, prevAffAssign, nil, &modelScope{include: scopeSet, residual: residual})
		if err != nil {
			return nil, deltaFallback("building sub-model: %v", err)
		}
		sol, tier, err := c.solveModel(ctx, m, prevAffAssign, nil)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("core: delta solving period %d: %w", req.Period, err)
			}
			return nil, deltaFallback("sub-model solve: %v", err)
		}
		if tier.Degraded() {
			return nil, deltaFallback("sub-model solve degraded to %s", tier)
		}
		sub = c.extractResult(m, sol, tier, req.Period, start)
	}

	res := c.mergeDelta(prev, sub, frozenAssigns, affectedActive, len(frozen), func(r *Result) {
		for _, f := range frozen {
			r.Configured[f.pid] = f.configured
			if f.hasSlack {
				r.SlackUsed[f.pid] = f.slack
			}
		}
	}, pairsByPid, weightByPid)
	res.Stats.Duration = time.Since(start)

	// Optimality guard: compare satisfied counts over the policies active
	// now (a policy whose window closed at this boundary is not a "drop").
	prevSat := 0
	for pid := range pairsByPid {
		if prev.Configured[pid] {
			prevSat++
		}
	}
	if got := res.SatisfiedCount(); got < prevSat-c.cfg.DeltaMaxSatisfiedDrop {
		return nil, deltaFallback("delta satisfied %d, more than %d below previous %d", got, c.cfg.DeltaMaxSatisfiedDrop, prevSat)
	}
	return res, nil
}

// freezeValid reports whether a policy's previous assignments can be
// carried verbatim into a merged result: every path link must still exist
// (keep-previous tiers can retain paths over since-removed links), every
// assignment pair must still be one of the policy's pairs (a relabel that
// shrank a group must not leave orphan rules installed — the audit would
// flag the leak), every path must still start and end at the pair's
// current attach switches (a failed move leaves the previous result
// routing from the endpoint's old switch), and a configured policy must
// still have a hard-role assignment for every current pair (membership
// growth needs new paths; an escalated pair's hard role sits on the
// escalation edge, which counts).
func freezeValid(t *topo.Topology, pairs [][2]string, configured bool, as []Assignment) bool {
	pairSet := make(map[[2]string]bool, len(pairs))
	for _, pr := range pairs {
		pairSet[pr] = false
	}
	for _, a := range as {
		if _, ok := pairSet[[2]string{a.Src, a.Dst}]; !ok {
			return false
		}
		if !pathAttached(t, a) {
			return false
		}
		for _, l := range a.Path.Links() {
			if _, ok := t.LinkCapacity(l[0], l[1]); !ok {
				return false
			}
		}
		if a.Role == HardEdge {
			pairSet[[2]string{a.Src, a.Dst}] = true
		}
	}
	if configured {
		for _, covered := range pairSet {
			if !covered {
				return false
			}
		}
	}
	return true
}

// pathAttached reports whether an assignment's path still begins at its
// source endpoint's attach switch and ends at its destination's. The
// previous result can disagree with the topology when an event mutated an
// attach point but its reconfiguration failed and rolled back.
func pathAttached(t *topo.Topology, a Assignment) bool {
	if len(a.Path.Nodes) == 0 {
		return false
	}
	src, ok := t.EndpointByName(a.Src)
	if !ok || a.Path.Nodes[0] != src.Attach {
		return false
	}
	dst, ok := t.EndpointByName(a.Dst)
	return ok && a.Path.Nodes[len(a.Path.Nodes)-1] == dst.Attach
}

// mergeDelta assembles the merged result: frozen assignments plus the
// sub-model's, configured/slack flags from both sides, a recomputed
// objective, and a link report rebuilt from the merged assignments with
// shadow prices preferred from the sub-model's root relaxation.
func (c *Configurator) mergeDelta(prev, sub *Result, frozenAssigns []Assignment, affected, frozenCount int, applyFrozen func(*Result), pairsByPid map[int][][2]string, weightByPid map[int]float64) *Result {
	res := &Result{
		Period:      sub.Period,
		Configured:  make(map[int]bool, len(pairsByPid)),
		SlackUsed:   map[int]bool{},
		Assignments: make([]Assignment, 0, len(frozenAssigns)+len(sub.Assignments)),
		Status:      sub.Status,
		Tier:        sub.Tier,
		Stats:       sub.Stats,
		Delta:       &DeltaStats{Affected: affected, Frozen: frozenCount},
		// Keep the previous root basis: the sub-model's basis does not
		// match the full model's dimensions, and the next full solve warm
		// starts best from the last full factorization.
		basis: prev.basis,
	}
	applyFrozen(res)
	for pid, ok := range sub.Configured {
		res.Configured[pid] = ok
	}
	for pid, used := range sub.SlackUsed {
		res.SlackUsed[pid] = used
	}
	res.Assignments = append(res.Assignments, frozenAssigns...)
	res.Assignments = append(res.Assignments, sub.Assignments...)
	sort.SliceStable(res.Assignments, func(i, j int) bool {
		a, b := res.Assignments[i], res.Assignments[j]
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.EdgeIdx != b.EdgeIdx {
			return a.EdgeIdx < b.EdgeIdx
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Path.Key() < b.Path.Key()
	})

	// Objective: recomputed as the normalized weighted coverage minus
	// λ-weighted slack over every active policy (the sub-model's objective
	// spans only the affected ones). Path-change penalties are omitted —
	// the frozen side has zero changes by construction. Summation runs in
	// sorted policy order so the float result is deterministic.
	pids := make([]int, 0, len(pairsByPid))
	for pid := range pairsByPid {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var wsum, obj float64
	for _, pid := range pids {
		w := weightByPid[pid]
		wsum += w
		if res.Configured[pid] {
			obj += w
		}
		if res.SlackUsed[pid] {
			obj -= c.cfg.Lambda * w
		}
	}
	if wsum <= 0 {
		wsum = 1
	}
	res.Objective = obj / wsum

	// Link report: reservations recomputed from the merged assignments;
	// shadow prices from the sub-model where it had a capacity row, else
	// carried from the previous report. Links that no longer exist are
	// dropped.
	reserved := map[[2]topo.NodeID]float64{}
	for _, a := range res.Assignments {
		for _, l := range a.Path.Links() {
			reserved[l] += a.BW
		}
	}
	subDual := make(map[[2]topo.NodeID]float64, len(sub.Links))
	for _, lu := range sub.Links {
		subDual[[2]topo.NodeID{lu.From, lu.To}] = lu.ShadowPrice
	}
	prevDual := make(map[[2]topo.NodeID]float64, len(prev.Links))
	keys := map[[2]topo.NodeID]bool{}
	for l := range reserved {
		keys[l] = true
	}
	for l := range subDual {
		keys[l] = true
	}
	for _, lu := range prev.Links {
		l := [2]topo.NodeID{lu.From, lu.To}
		prevDual[l] = lu.ShadowPrice
		keys[l] = true
	}
	ordered := make([][2]topo.NodeID, 0, len(keys))
	for l := range keys {
		ordered = append(ordered, l)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i][0] != ordered[j][0] {
			return ordered[i][0] < ordered[j][0]
		}
		return ordered[i][1] < ordered[j][1]
	})
	for _, l := range ordered {
		capacity, ok := c.topo.LinkCapacity(l[0], l[1])
		if !ok {
			continue
		}
		sp, ok := subDual[l]
		if !ok {
			sp = prevDual[l]
		}
		res.Links = append(res.Links, LinkUse{
			From: l[0], To: l[1],
			Capacity:    capacity,
			Reserved:    reserved[l],
			ShadowPrice: sp,
		})
	}
	return res
}
