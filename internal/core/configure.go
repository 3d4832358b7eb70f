package core

import (
	"context"
	"fmt"
	"time"

	"janus/internal/lp"
	"janus/internal/milp"
)

// Configure solves one time period's configuration from scratch.
// The period is an hour of day (0–23); static policy sets ignore it.
func (c *Configurator) Configure(period int) (*Result, error) {
	return c.ConfigureContext(context.Background(), period)
}

// ConfigureContext is Configure with a cancellation context: cancelling it
// aborts the branch-and-bound search between node solves (an HTTP client
// abandoning /configure should not leave the solver running).
func (c *Configurator) ConfigureContext(ctx context.Context, period int) (*Result, error) {
	return c.solvePeriod(ctx, period, nil, nil)
}

// Reconfigure re-solves period prev.Period after environment changes
// (endpoint mobility, membership changes, policy graph churn), warm-started
// from the previous basis and penalizing path changes against the previous
// assignments (§5.4). Use CountPathChanges(prev, next) to measure the
// disruption.
func (c *Configurator) Reconfigure(prev *Result) (*Result, error) {
	return c.ReconfigureContext(context.Background(), prev)
}

// ReconfigureContext is Reconfigure with a cancellation context.
func (c *Configurator) ReconfigureContext(ctx context.Context, prev *Result) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: Reconfigure requires a previous result")
	}
	return c.ReconfigureAtContext(ctx, prev, prev.Period)
}

// ReconfigureAt re-solves for the given period (which may differ from the
// previous result's, e.g. at a temporal boundary), warm-started from the
// previous basis and penalizing path changes against the previous
// assignments.
func (c *Configurator) ReconfigureAt(prev *Result, period int) (*Result, error) {
	return c.ReconfigureAtContext(context.Background(), prev, period)
}

// ReconfigureAtContext is ReconfigureAt with a cancellation context.
func (c *Configurator) ReconfigureAtContext(ctx context.Context, prev *Result, period int) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: ReconfigureAt requires a previous result")
	}
	return c.solvePeriod(ctx, period, prev, nil)
}

// solvePeriod builds and solves the period model. When the full solve
// fails to produce an incumbent, it falls down the degradation ladder:
// best incumbent → rounded LP relaxation → keep the previous configuration
// → empty configuration, recording the serving tier in Result.Tier.
func (c *Configurator) solvePeriod(ctx context.Context, period int, prev *Result, over bwOverride) (*Result, error) {
	start := time.Now()
	var prevAssign []Assignment
	if prev != nil {
		prevAssign = prev.Assignments
	}
	m, err := c.buildModel(period, prevAssign, over)
	if err != nil {
		return nil, err
	}
	var warm *lp.Basis
	if prev != nil {
		warm = prev.basis
	}
	sol, tier, err := c.solveModel(ctx, m, prevAssign, warm)
	if err != nil {
		// Cancellation is not a solver failure; never degrade past it.
		return nil, fmt.Errorf("core: solving period %d: %w", period, err)
	}
	if tier == TierNone && prev != nil {
		// Rung 3: keep the previous configuration untouched.
		return c.keepPrevious(prev, period, m, sol, start), nil
	}
	return c.extractResult(m, sol, tier, period, start), nil
}

// solveModel runs branch and bound on a built model with the standard
// options: branch priorities on the I_i group decisions, the greedy MIP
// start, and an optional warm basis. When the search produces no incumbent
// it falls to the rounded LP relaxation (rung 2 of the degradation
// ladder); tier is TierNone when even that failed, and the caller decides
// whether a previous configuration can be kept instead.
func (c *Configurator) solveModel(ctx context.Context, m *model, prevAssign []Assignment, warm *lp.Basis) (*milp.Solution, DegradationTier, error) {
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
		RelGap:         c.cfg.RelGap,
		Branching:      c.cfg.Branching,
		StallNodes:     c.cfg.StallNodes,
		Workers:        c.cfg.Workers,
		BranchPriority: prio,
		MIPStart:       greedyStart(c, m, prevAssign),
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
		// Limit with no incumbent, Infeasible, or Unbounded. Rung 2: round
		// the LP relaxation.
		if rsol, ok := solver.RelaxAndRound(ctx); ok {
			return rsol, TierLPRound, nil
		}
		return sol, TierNone, nil
	}
}

// extractResult converts a solved model into a Result: configured flags
// from the I_i indicators, assignments from the selected path variables,
// and the link report (reservations from the integer solution, shadow
// prices from the root relaxation, §5.6 sensitivity analysis).
func (c *Configurator) extractResult(m *model, sol *milp.Solution, tier DegradationTier, period int, start time.Time) *Result {
	res := &Result{
		Period:     period,
		Configured: make(map[int]bool, len(m.pids)),
		SlackUsed:  make(map[int]bool),
		Status:     sol.Status,
		Tier:       tier,
		Stats: Stats{
			Variables:        m.prob.NumVariables(),
			Constraints:      m.prob.NumConstraints(),
			Nodes:            sol.Nodes,
			LPIterations:     sol.LPIterations,
			Refactorizations: sol.Refactorizations,
			PricingSwitches:  sol.PricingSwitches,
			Workers:          sol.Workers,
			Duration:         time.Since(start),
		},
		basis: sol.RootBasis,
	}
	if sol.X == nil {
		// The model always admits the all-zero solution, so this indicates
		// a limit hit before any incumbent was found (and rung 2 failed).
		for _, pid := range m.pids {
			res.Configured[pid] = false
		}
		return res
	}
	res.Objective = sol.Objective
	for _, pid := range m.pids {
		res.Configured[pid] = sol.X[m.iVar[pid]] > 0.5
	}
	for pid, xi := range m.xiVar {
		res.SlackUsed[pid] = sol.X[xi] > 0.5
	}
	for _, pv := range m.pvars {
		if sol.X[pv.v] > 0.5 {
			res.Assignments = append(res.Assignments, Assignment{
				Policy:  pv.pid,
				EdgeIdx: pv.edgeIdx,
				Role:    pv.role,
				Src:     pv.src,
				Dst:     pv.dst,
				Path:    pv.path,
				BW:      pv.bw,
			})
		}
	}
	// Link report: reservations from the integer solution, shadow prices
	// from the root relaxation (§5.6 sensitivity analysis).
	reserved := map[[2]int64]float64{}
	for _, a := range res.Assignments {
		for _, l := range a.Path.Links() {
			reserved[[2]int64{int64(l[0]), int64(l[1])}] += a.BW
		}
	}
	for l, row := range m.linkRow {
		capacity, _ := c.topo.LinkCapacity(l[0], l[1])
		use := LinkUse{
			From: l[0], To: l[1],
			Capacity: capacity,
			Reserved: reserved[[2]int64{int64(l[0]), int64(l[1])}],
		}
		if sol.RootDuals != nil && row < len(sol.RootDuals) {
			use.ShadowPrice = sol.RootDuals[row]
		}
		res.Links = append(res.Links, use)
	}
	return res
}

// keepPrevious is the last resort of the degradation ladder: the period's
// solve produced nothing usable, so the previous configuration is served
// verbatim — stale paths beat no paths, and because the assignments are
// identical the dataplane sees zero rule churn.
func (c *Configurator) keepPrevious(prev *Result, period int, m *model, failed *milp.Solution, start time.Time) *Result {
	res := &Result{
		Period:      period,
		Configured:  make(map[int]bool, len(prev.Configured)),
		SlackUsed:   make(map[int]bool, len(prev.SlackUsed)),
		Assignments: append([]Assignment(nil), prev.Assignments...),
		Objective:   prev.Objective,
		Links:       append([]LinkUse(nil), prev.Links...),
		Status:      failed.Status,
		Tier:        TierKeepPrevious,
		Stats: Stats{
			Variables:        m.prob.NumVariables(),
			Constraints:      m.prob.NumConstraints(),
			Nodes:            failed.Nodes,
			LPIterations:     failed.LPIterations,
			Refactorizations: failed.Refactorizations,
			PricingSwitches:  failed.PricingSwitches,
			Workers:          failed.Workers,
			Duration:         time.Since(start),
		},
		basis: prev.basis,
	}
	for pid, ok := range prev.Configured {
		res.Configured[pid] = ok
	}
	for pid, used := range prev.SlackUsed {
		res.SlackUsed[pid] = used
	}
	return res
}
