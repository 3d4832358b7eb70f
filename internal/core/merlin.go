package core

import (
	"context"
	"fmt"
	"time"

	"janus/internal/lp"
	"janus/internal/milp"
)

// FeasibilityReport is the outcome of the Merlin-style check (§2.1):
// existing systems "convert policy configuration into a flow constraint
// problem and inform the policy writers whether the constraint problem has
// a feasible solution or not" — all policies or nothing, no partial
// satisfaction and no negotiation.
type FeasibilityReport struct {
	// Feasible is true when every policy active in the period can be
	// configured simultaneously.
	Feasible bool
	// Policies is the number of policies the check covered.
	Policies int
	// Result holds the full configuration when Feasible; nil otherwise —
	// the all-or-nothing semantics existing systems give policy writers.
	Result *Result
	Stats  Stats
}

// CheckFeasibility runs the Merlin-style baseline for one period: it asks
// whether the entire policy set is simultaneously configurable, returning
// the configuration only when it is. Contrast with Configure, which
// maximizes the satisfied subset (the paper's Janus objective) and reports
// per-policy violations for negotiation.
func (c *Configurator) CheckFeasibility(period int) (*FeasibilityReport, error) {
	start := time.Now()
	m, err := c.buildModel(period, nil, nil)
	if err != nil {
		return nil, err
	}
	// Force every policy in: I_i = 1 turns the maximization into a pure
	// feasibility problem.
	for _, pid := range m.pids {
		if _, err := m.prob.AddConstraint(lp.EQ, 1, []lp.Term{{Var: m.iVar[pid], Coef: 1}}); err != nil {
			return nil, err
		}
	}
	solver := milp.NewSolver(m.prob, m.integers)
	sol, err := solver.Solve(context.Background(), milp.Options{
		MaxNodes:  c.cfg.MaxNodes,
		TimeLimit: c.cfg.TimeLimit,
		RelGap:    c.cfg.RelGap,
		MIPStart:  greedyStart(c, m, nil),
	})
	if err != nil {
		return nil, fmt.Errorf("core: feasibility check: %w", err)
	}
	rep := &FeasibilityReport{
		Policies: len(m.pids),
		Stats: Stats{
			Variables:        m.prob.NumVariables(),
			Constraints:      m.prob.NumConstraints(),
			Nodes:            sol.Nodes,
			LPIterations:     sol.LPIterations,
			Refactorizations: sol.Refactorizations,
			PricingSwitches:  sol.PricingSwitches,
			Duration:         time.Since(start),
		},
	}
	if sol.Status != milp.Optimal && sol.Status != milp.Feasible {
		return rep, nil // infeasible (or proof budget exhausted: report no)
	}
	rep.Feasible = true
	res := &Result{
		Period:     period,
		Configured: make(map[int]bool, len(m.pids)),
		SlackUsed:  map[int]bool{},
		Status:     sol.Status,
		Stats:      rep.Stats,
	}
	for _, pid := range m.pids {
		res.Configured[pid] = true
	}
	for _, pv := range m.pvars {
		if sol.X[pv.v] > 0.5 {
			res.Assignments = append(res.Assignments, Assignment{
				Policy: pv.pid, EdgeIdx: pv.edgeIdx, Role: pv.role,
				Src: pv.src, Dst: pv.dst, Path: pv.path, BW: pv.bw,
			})
		}
	}
	rep.Result = res
	return rep, nil
}
