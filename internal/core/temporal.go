package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"janus/internal/lp"
	"janus/internal/milp"
)

// TemporalResult is the output of a temporal configuration: one Result per
// time period of the composed graph, in period order.
type TemporalResult struct {
	// Periods lists the hour boundaries.
	Periods []int
	// Results holds one configuration per period.
	Results []*Result
	// PathChanges is the number of cross-period path changes summed over
	// consecutive period transitions (the Table 5 metric).
	PathChanges int
	// TotalConfigured sums SatisfiedCount over periods.
	TotalConfigured int
	// Duration is the wall time of the whole chain.
	Duration time.Duration
}

// ConfigureTemporal runs the greedy per-period chain of §5.5: the first
// period is solved from scratch; each subsequent period is solved with
// path-change penalties (ρ) against the previous period's assignments, so
// policies spanning several periods keep their paths wherever possible.
func (c *Configurator) ConfigureTemporal() (*TemporalResult, error) {
	return c.configureTemporal(nil)
}

func (c *Configurator) configureTemporal(over bwOverride) (*TemporalResult, error) {
	start := time.Now()
	periods := c.graph.Periods()
	tr := &TemporalResult{Periods: periods}
	var prev *Result
	for _, h := range periods {
		res, err := c.solvePeriod(context.Background(), h, prev, over)
		if err != nil {
			return nil, fmt.Errorf("core: temporal chain at %dh: %w", h, err)
		}
		if prev != nil {
			tr.PathChanges += CountPathChanges(prev, res)
		}
		tr.Results = append(tr.Results, res)
		tr.TotalConfigured += res.SatisfiedCount()
		prev = res
	}
	tr.Duration = time.Since(start)
	return tr, nil
}

// ConfigureTemporalIndependent solves every period from scratch with no
// cross-period penalties: the baseline the paper's Table 5 compares the
// greedy chain against ("re-running our original heuristic algorithm §5.2
// for each time period"). Like the paper's baseline, each re-run draws a
// fresh random candidate-path subset, so consecutive periods have no
// built-in path stability.
func (c *Configurator) ConfigureTemporalIndependent() (*TemporalResult, error) {
	start := time.Now()
	periods := c.graph.Periods()
	tr := &TemporalResult{Periods: periods}

	// Period solves share nothing (that is the point of the baseline), so
	// they run concurrently. Each gets its own Configurator: the path
	// enumerator cache and RNG are not safe for concurrent use. The fan-out
	// is bounded by the configured worker count so a 24-period graph does
	// not stack 24 branch-and-bound searches (each possibly multi-worker
	// itself) on one machine.
	results := make([]*Result, len(periods))
	errs := make([]error, len(periods))
	limit := c.cfg.Workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	c.topo.Index() // the period solves below share the topology read-only
	for i, h := range periods {
		wg.Add(1)
		go func(i, h int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := c.cfg
			cfg.Seed = c.cfg.Seed*31 + int64(h)*104729 + 17
			fresh, err := New(c.topo, c.graph, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("core: independent chain at %dh: %w", h, err)
				return
			}
			res, err := fresh.solvePeriod(context.Background(), h, nil, nil)
			if err != nil {
				errs[i] = fmt.Errorf("core: independent chain at %dh: %w", h, err)
				return
			}
			results[i] = res
		}(i, h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var prev *Result
	for _, res := range results {
		if prev != nil {
			tr.PathChanges += CountPathChanges(prev, res)
		}
		tr.Results = append(tr.Results, res)
		tr.TotalConfigured += res.SatisfiedCount()
		prev = res
	}
	tr.Duration = time.Since(start)
	return tr, nil
}

// ConfigureTemporalJoint solves the joint optimization of Eqn 9: one MILP
// spanning all periods, with per-period copies of every variable and
// capacity constraint plus α-coupled path-change terms between consecutive
// periods. It is exponentially more expensive than the greedy chain (the
// paper's joint run "did not complete even after running for over 20
// hours"); use only on small instances.
func (c *Configurator) ConfigureTemporalJoint() (*TemporalResult, error) {
	start := time.Now()
	periods := c.graph.Periods()
	if len(periods) == 0 {
		return &TemporalResult{}, nil
	}

	prob := lp.NewProblem()
	var integers []int
	type slotKey struct {
		pid, edgeIdx int
		src, dst     string
		pathKey      string
	}
	// Per-period layouts, built with the same deterministic slot logic as
	// buildModel, but into one shared problem.
	models := make([]*model, len(periods))
	perPeriodVar := make([]map[slotKey]int, len(periods))
	for k, h := range periods {
		m, err := c.buildModel(h, nil, nil)
		if err != nil {
			return nil, err
		}
		// Copy m's variables, rows and objective into the shared problem,
		// remapping indices; objective weights are divided by the period
		// count (Eqn 9 sums normalized per-period objectives).
		remap := make([]int, m.prob.NumVariables())
		for v := 0; v < m.prob.NumVariables(); v++ {
			lo, up := m.prob.Bounds(v)
			remap[v] = prob.AddVariable(lo, up, m.prob.ObjectiveCoef(v)/float64(len(periods)))
		}
		for i := 0; i < m.prob.NumConstraints(); i++ {
			sense, rhs, terms := m.prob.Constraint(i)
			for k := range terms {
				terms[k].Var = remap[terms[k].Var]
			}
			if _, err := prob.AddConstraint(sense, rhs, terms); err != nil {
				return nil, err
			}
		}
		for _, pv := range m.pvars {
			integers = append(integers, remap[pv.v])
		}
		for _, pid := range m.pids {
			integers = append(integers, remap[m.iVar[pid]])
		}
		perPeriodVar[k] = make(map[slotKey]int, len(m.pvars))
		for i := range m.pvars {
			pv := &m.pvars[i]
			perPeriodVar[k][slotKey{pv.pid, pv.edgeIdx, pv.src, pv.dst, pv.path.Key()}] = remap[pv.v]
			pv.v = remap[pv.v] // keep layout usable for extraction
		}
		for pid := range m.iVar {
			m.iVar[pid] = remap[m.iVar[pid]]
		}
		for pid := range m.xiVar {
			m.xiVar[pid] = remap[m.xiVar[pid]]
		}
		models[k] = m
	}

	// Cross-period α coupling (Eqn 9): for consecutive periods, selecting a
	// path at t but not at t+1 costs ρ. Linearized as α ≥ P_t − P_{t+1}.
	var alphas []int
	for k := 0; k+1 < len(periods); k++ {
		for key, vPrev := range perPeriodVar[k] {
			vNext, ok := perPeriodVar[k+1][key]
			if !ok {
				continue
			}
			alpha := prob.AddVariable(0, 1, 0)
			if _, err := prob.AddConstraint(lp.GE, 0,
				[]lp.Term{{Var: alpha, Coef: 1}, {Var: vPrev, Coef: -1}, {Var: vNext, Coef: 1}}); err != nil {
				return nil, err
			}
			alphas = append(alphas, alpha)
		}
	}
	if n := len(alphas); n > 0 {
		for _, a := range alphas {
			if err := prob.SetObjective(a, -rho/float64(n)); err != nil {
				return nil, err
			}
		}
	}

	sol, err := milp.NewSolver(prob, integers).Solve(context.Background(), milp.Options{
		MaxNodes:  c.cfg.MaxNodes,
		TimeLimit: c.cfg.TimeLimit,
		RelGap:    relGap,
		Workers:   c.cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: joint temporal solve: %w", err)
	}

	tr := &TemporalResult{Periods: periods, Duration: time.Since(start)}
	var prev *Result
	for k, h := range periods {
		m := models[k]
		res := &Result{
			Period:     h,
			Configured: map[int]bool{},
			SlackUsed:  map[int]bool{},
			Status:     sol.Status,
			Stats: Stats{
				Variables:        prob.NumVariables(),
				Constraints:      prob.NumConstraints(),
				Nodes:            sol.Nodes,
				LPIterations:     sol.LPIterations,
				Refactorizations: sol.Refactorizations,
				PricingSwitches:  sol.PricingSwitches,
				Workers:          sol.Workers,
			},
		}
		if sol.X != nil {
			for _, pid := range m.pids {
				res.Configured[pid] = sol.X[m.iVar[pid]] > 0.5
			}
			for _, pv := range m.pvars {
				if sol.X[pv.v] > 0.5 {
					res.Assignments = append(res.Assignments, Assignment{
						Policy: pv.pid, EdgeIdx: pv.edgeIdx, Role: pv.role,
						Src: pv.src, Dst: pv.dst, Path: pv.path, BW: pv.bw,
					})
				}
			}
		}
		if prev != nil {
			tr.PathChanges += CountPathChanges(prev, res)
		}
		tr.TotalConfigured += res.SatisfiedCount()
		tr.Results = append(tr.Results, res)
		prev = res
	}
	return tr, nil
}
