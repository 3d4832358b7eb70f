package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"janus/internal/lp"
	"janus/internal/milp"
	"janus/internal/topo"
)

// Configure solves one time period's configuration from scratch, with
// every flow in its normal state. The period is an hour of day (0–23);
// static policy sets ignore it.
func (c *Configurator) Configure(period int) (*Result, error) {
	return c.ConfigureContext(context.Background(), period, nil)
}

// ConfigureContext is Configure for the flows' counter state, with a
// cancellation context: cancelling it aborts the branch-and-bound search
// between node solves (an HTTP client abandoning /configure should not
// leave the solver running).
func (c *Configurator) ConfigureContext(ctx context.Context, period int, counters Counters) (*Result, error) {
	return c.solvePeriod(ctx, period, nil, nil, counters)
}

// Reconfigure re-solves period prev.Period after environment changes
// (endpoint mobility, membership changes, policy graph churn), warm-started
// from the previous basis and penalizing path changes against the previous
// assignments (§5.4). Use CountPathChanges(prev, next) to measure the
// disruption.
func (c *Configurator) Reconfigure(prev *Result) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: Reconfigure requires a previous result")
	}
	return c.ReconfigureAtContext(context.Background(), prev, prev.Period, nil)
}

// ReconfigureAtContext re-solves for the given period (which may differ
// from the previous result's, e.g. at a temporal boundary) and the flows'
// counter state, warm-started from the previous basis and penalizing path
// changes against the previous assignments.
func (c *Configurator) ReconfigureAtContext(ctx context.Context, prev *Result, period int, counters Counters) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: ReconfigureAtContext requires a previous result")
	}
	return c.solvePeriod(ctx, period, prev, nil, counters)
}

// solvePeriod builds and solves the period model. When the full solve
// fails to produce an incumbent, it falls down the degradation ladder:
// best incumbent → keep the previous configuration → empty configuration,
// recording the serving tier in Result.Tier.
func (c *Configurator) solvePeriod(ctx context.Context, period int, prev *Result, over bwOverride, counters Counters) (*Result, error) {
	start := time.Now()
	var prevAssign []Assignment
	var warm *lp.Basis
	if prev != nil {
		prevAssign, warm = prev.Assignments, prev.basis
	}
	m, err := c.buildModel(period, prevAssign, over, counters)
	if err != nil {
		return nil, err
	}
	sol, tier, err := c.solveModel(ctx, m, warm)
	if err != nil {
		// Cancellation is not a solver failure; never degrade past it.
		return nil, fmt.Errorf("core: solving period %d: %w", period, err)
	}
	if tier == TierNone && prev != nil {
		// Keep the previous configuration untouched.
		return c.keepPrevious(prev, period, m, sol, start), nil
	}
	return c.extractResult(m, sol, tier, period, start), nil
}

// solveModel runs branch and bound on a built model with the standard
// options: branch priorities on the I_i group decisions, the greedy MIP
// start, and an optional warm basis. Tier is TierNone when the search
// produced no incumbent — its root already tried both roundings of the
// relaxation — and the caller decides whether a previous configuration can
// be kept instead.
func (c *Configurator) solveModel(ctx context.Context, m *model, warm *lp.Basis) (*milp.Solution, DegradationTier, error) {
	solver := milp.NewSolver(m.prob, m.integers)
	// Branch on group decisions (I_i) before individual path indicators:
	// fixing a policy in or out prunes the tree far faster.
	prio := make(map[int]int, len(m.iVar))
	for _, iv := range m.iVar {
		prio[iv] = 1
	}
	sol, err := solver.Solve(ctx, milp.Options{
		MaxNodes:       c.cfg.MaxNodes,
		TimeLimit:      c.cfg.TimeLimit,
		RelGap:         relGap,
		StallNodes:     c.cfg.StallNodes,
		Workers:        c.cfg.Workers,
		BranchPriority: prio,
		MIPStart:       greedyStart(m),
		WarmStart:      warm,
	})
	if err != nil {
		return nil, TierNone, err
	}
	switch sol.Status {
	case milp.Optimal:
		return sol, TierFull, nil
	case milp.Feasible:
		// A node/time/stall limit stopped the proof; the incumbent serves.
		return sol, TierIncumbent, nil
	default:
		// Limit with no incumbent, Infeasible, or Unbounded.
		return sol, TierNone, nil
	}
}

// extractResult converts a solved model into a Result: the decoded
// solution and the link report (reservations from the integer solution,
// shadow prices from the root relaxation, §5.6 sensitivity analysis).
func (c *Configurator) extractResult(m *model, sol *milp.Solution, tier DegradationTier, period int, start time.Time) *Result {
	res := &Result{
		Period:     period,
		Configured: make(map[int]bool, len(m.pids)),
		SlackUsed:  make(map[int]bool),
		Status:     sol.Status,
		Tier:       tier,
		Stats:      m.stats(sol, start),
		basis:      sol.RootBasis,
	}
	// A nil X means a limit hit before any incumbent was found: the model
	// always admits the all-zero solution.
	m.decode(sol.X, res)
	if sol.X == nil {
		return res
	}
	res.Objective = sol.Objective
	links := make([][2]topo.NodeID, 0, len(m.linkRow))
	for l := range m.linkRow {
		links = append(links, l)
	}
	res.Links = c.linkReport(links, reservedBW(res.Assignments), func(l [2]topo.NodeID) float64 {
		if row := m.linkRow[l]; row < len(sol.RootDuals) {
			return sol.RootDuals[row]
		}
		return 0
	})
	return res
}

// keepPrevious is the last resort of the degradation ladder: the period's
// solve produced nothing usable, so the previous configuration is served
// verbatim — stale paths beat no paths, and because the assignments are
// identical the dataplane sees zero rule churn.
func (c *Configurator) keepPrevious(prev *Result, period int, m *model, failed *milp.Solution, start time.Time) *Result {
	return &Result{
		Period:      period,
		Configured:  maps.Clone(prev.Configured),
		SlackUsed:   maps.Clone(prev.SlackUsed),
		Assignments: append([]Assignment(nil), prev.Assignments...),
		Objective:   prev.Objective,
		Links:       append([]LinkUse(nil), prev.Links...),
		Status:      failed.Status,
		Tier:        TierKeepPrevious,
		Stats:       m.stats(failed, start),
		basis:       prev.basis,
	}
}

// decode reads a solution vector of the model into res: the configured
// flags from the I_i indicators, the slack flags from the ξ_i and the
// assignments from the selected path variables. A nil x configures no
// policy.
func (m *model) decode(x []float64, res *Result) {
	for _, pid := range m.pids {
		res.Configured[pid] = x != nil && x[m.iVar[pid]] > 0.5
	}
	if x == nil {
		return
	}
	for pid, xi := range m.xiVar {
		res.SlackUsed[pid] = x[xi] > 0.5
	}
	for _, pv := range m.pvars {
		if x[pv.v] > 0.5 {
			res.Assignments = append(res.Assignments, Assignment{
				Policy: pv.pid, EdgeIdx: pv.edgeIdx, Role: pv.role,
				Src: pv.src, Dst: pv.dst, Path: pv.path, BW: pv.bw,
			})
		}
	}
}

// stats is the effort a solve of the model took, timed from start.
func (m *model) stats(sol *milp.Solution, start time.Time) Stats {
	return Stats{
		Variables:   m.prob.NumVariables(),
		Constraints: m.prob.NumConstraints(),
		Effort:      sol.Effort,
		Duration:    time.Since(start),
	}
}

// reservedBW sums the bandwidth the assignments reserve on each directed
// link.
func reservedBW(as []Assignment) map[[2]topo.NodeID]float64 {
	out := map[[2]topo.NodeID]float64{}
	for _, a := range as {
		for _, l := range a.Path.Links() {
			out[l] += a.BW
		}
	}
	return out
}

// linkReport is a result's link report: one LinkUse per distinct link of
// links, sorted by (From, To), with its capacity, the bandwidth reserved on
// it and its shadow price. Links gone from the topology are dropped; an
// empty report is nil.
func (c *Configurator) linkReport(links [][2]topo.NodeID, reserved map[[2]topo.NodeID]float64, price func([2]topo.NodeID) float64) []LinkUse {
	slices.SortFunc(links, func(a, b [2]topo.NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	var out []LinkUse
	for _, l := range slices.Compact(links) {
		capacity, ok := c.topo.LinkCapacity(l[0], l[1])
		if !ok {
			continue
		}
		out = append(out, LinkUse{From: l[0], To: l[1], Capacity: capacity, Reserved: reserved[l], ShadowPrice: price(l)})
	}
	return out
}
