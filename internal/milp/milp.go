// Package milp implements a branch-and-bound solver for mixed 0/1 integer
// linear programs on top of the internal/lp simplex. Together they replace
// the commercial ILP solver (Gurobi) the Janus paper uses: the policy
// configurator formulates Eqns 1–10 as a 0/1 program and solves it here,
// both in "full ILP" mode (all candidate paths) and in "Janus heuristic"
// mode (a random subset of paths), so the paper's ILP-vs-heuristic
// comparisons exercise one consistent solver.
package milp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"janus/internal/lp"
)

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal within RelGap.
	Optimal Status = iota
	// Feasible means an incumbent exists but limits stopped the proof.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unbounded means the relaxation is unbounded.
	Unbounded
	// Limit means a node/time limit was hit with no incumbent.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options control a branch-and-bound run.
type Options struct {
	// MaxNodes bounds explored nodes; 0 means 200000.
	MaxNodes int
	// TimeLimit bounds wall time; 0 means none.
	TimeLimit time.Duration
	// RelGap is the relative optimality gap at which search stops;
	// 0 means 1e-6.
	RelGap float64
	// BranchPriority, when non-nil, restricts branching to the fractional
	// variables of the highest priority present (then branches on the most
	// fractional of them).
	// Janus uses this to branch on policy indicators (I_i) before path
	// indicators (P_{i,p}): fixing a group decision prunes far more of the
	// tree than fixing one path.
	BranchPriority map[int]int
	// StallNodes, when positive, stops the search after this many nodes
	// without incumbent improvement (reporting Feasible). Weak-bound
	// models otherwise burn the whole time budget proving nothing.
	StallNodes int
	// MIPStart, when non-nil, proposes 0/1 values for integer variables;
	// if the proposal is feasible (checked by an LP solve with those
	// fixings) it becomes the initial incumbent, enabling pruning from the
	// first node.
	MIPStart map[int]float64
	// WarmStart seeds the root relaxation.
	WarmStart *lp.Basis
	// Workers is the number of branch-and-bound workers; 0 means
	// GOMAXPROCS. The count selects the order the one search explores
	// nodes in: a single worker takes the newest node first, a
	// deterministic depth-first dive; several take the best bound first
	// and solve node LPs concurrently (all but the caller's on private
	// problem clones), which makes the exploration order — and therefore
	// which ε-optimal incumbent is returned — nondeterministic. The
	// objective value agrees with the one-worker solve within RelGap
	// (enforced by the difftest harness).
	Workers int
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Bound is the best proven upper bound on the objective.
	Bound float64
	Effort
	// RootDuals holds the dual values of the root LP relaxation, used for
	// sensitivity analysis (§5.6 ranks bottleneck links by shadow price).
	RootDuals []float64
	// RootBasis snapshots the root relaxation basis for warm restarts.
	RootBasis *lp.Basis
}

// Effort counts the work a solve did.
type Effort struct {
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// LPIterations accumulates simplex pivots across all node solves.
	LPIterations int
	// Refactorizations accumulates basis refactorizations across all node
	// solves; warm-started nodes that reuse the retained factorization
	// contribute zero, so low values per node indicate the warm path works.
	Refactorizations int
	// PricingSwitches accumulates candidate-list → full-scan pricing
	// fallbacks across all node solves.
	PricingSwitches int
	// Workers is the number of branch-and-bound workers the solve ran with.
	Workers int
}

// addLP folds one node LP's solver counters into the MILP totals.
func (sol *Solution) addLP(res *lp.Solution) {
	sol.LPIterations += res.Iterations
	sol.Refactorizations += res.Refactorizations
	sol.PricingSwitches += res.PricingSwitches
}

const (
	intTol = 1e-6
	// pruneTol is the bound-vs-incumbent slack below which a node cannot
	// improve the incumbent and is pruned.
	pruneTol = 1e-9
)

// Solver runs branch and bound over an lp.Problem with a designated set of
// integer (binary) variables. The Problem is mutated during the solve
// (bound changes) but restored before returning.
type Solver struct {
	prob     *lp.Problem
	integers []int
	// saved bounds for restoration
	savedLo, savedUp []float64
}

// NewSolver wraps a problem whose listed variables must take 0/1 values.
func NewSolver(prob *lp.Problem, integers []int) *Solver {
	return &Solver{prob: prob, integers: append([]int(nil), integers...)}
}

// fixing is one branching decision. A node's fixings form an immutable
// chain shared with its ancestors: branching allocates one entry per child
// instead of copying a map of the whole path, which kept the hot worker
// loop O(depth) in allocations per node. Each variable appears at most
// once on a chain — a fixed variable is never fractional again, so it is
// never re-branched.
type fixing struct {
	v    int
	val  float64 // 0 or 1
	prev *fixing
}

type node struct {
	// fixings applied relative to the root, innermost decision first
	fixings *fixing
	bound   float64 // parent LP objective (upper bound for this node)
	basis   *lp.Basis
	depth   int
	seq     int64 // push order, the last tie-break of the best-first frontier
}

// Solve runs branch and bound: the root relaxation and incumbent seeding
// on the calling goroutine, then Options.Workers workers over one shared
// frontier (see search). The context is checked each time a worker claims
// a node: cancelling it (an HTTP client abandoning /configure, a shutdown)
// aborts the search promptly and returns the context's error — distinct
// from TimeLimit, which is a planned budget and yields the best incumbent.
func (s *Solver) Solve(ctx context.Context, opts Options) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("milp: solve aborted: %w", err)
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("milp: %w", err)
	}
	sr := s.newSearch(opts.withDefaults())
	defer s.restoreBounds()
	root, err := sr.relaxRoot(s, opts.WarmStart)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return sr.sol, nil
	}
	frac := s.pickBranch(root.X, sr.opts)
	sr.mu.Lock()
	if frac < 0 {
		// Root is integral: done.
		sr.acceptLocked(root.X, root.Objective)
		sr.sol.Nodes = 1
		sr.mu.Unlock()
		return sr.result()
	}
	for _, ch := range s.children(&node{bound: root.Objective, basis: root.Basis}, frac, root.X[frac]) {
		sr.pushLocked(ch)
	}
	sr.mu.Unlock()

	// Worker 0 is this goroutine on the solver's own problem; the others
	// each own a clone, taken here, before worker 0 starts editing bounds.
	var wg sync.WaitGroup
	for id := 1; id < sr.opts.Workers; id++ {
		w := &Solver{prob: s.prob.Clone(), integers: s.integers}
		w.prepare()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr.work(ctx, w)
		}()
	}
	sr.work(ctx, s)
	wg.Wait()
	return sr.result()
}

// children builds the two child nodes of branching variable v with LP value
// x, ordering them so the more promising child is explored first (dive
// toward the nearer integer). It returns an array, not a slice, so the hot
// branch step allocates only the two nodes and their fixing entries.
func (s *Solver) children(parent *node, v int, x float64) [2]*node {
	up := &node{fixings: &fixing{v: v, val: 1, prev: parent.fixings}, //janus:allow(hotalloc): a branch node must outlive the step: it escapes to the node queue by design
		bound: parent.bound, basis: parent.basis, depth: parent.depth + 1}
	down := &node{fixings: &fixing{v: v, val: 0, prev: parent.fixings}, //janus:allow(hotalloc): a branch node must outlive the step: it escapes to the node queue by design
		bound: parent.bound, basis: parent.basis, depth: parent.depth + 1}
	// The one-worker frontier is LIFO: the preferred child goes last.
	if x >= 0.5 {
		return [2]*node{down, up}
	}
	return [2]*node{up, down}
}

// fixingChain converts a caller-facing fixings map (Options.MIPStart) into
// a chain, in sorted variable order so the bound edits are deterministic.
func fixingChain(m map[int]float64) *fixing {
	vars := make([]int, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	var f *fixing
	for _, v := range vars {
		f = &fixing{v: v, val: m[v], prev: f}
	}
	return f
}

// solveLP applies the fixing chain, solves, and restores bounds.
func (s *Solver) solveLP(fixings *fixing, warm *lp.Basis) (*lp.Solution, error) {
	for f := fixings; f != nil; f = f.prev {
		if err := s.prob.SetBounds(f.v, f.val, f.val); err != nil {
			return nil, err
		}
	}
	res, err := s.prob.Solve(lp.Options{WarmStart: warm})
	for f := fixings; f != nil; f = f.prev {
		if err2 := s.restoreVar(f.v); err2 != nil && err == nil {
			err = err2
		}
	}
	return res, err
}

// prepare readies s to work on one search: it snapshots the bounds that
// node LPs edit and restore.
func (s *Solver) prepare() {
	n := s.prob.NumVariables()
	s.savedLo = make([]float64, n)
	s.savedUp = make([]float64, n)
	for v := 0; v < n; v++ {
		s.savedLo[v], s.savedUp[v] = s.prob.Bounds(v)
	}
}

func (s *Solver) restoreBounds() {
	for v := range s.savedLo {
		_ = s.prob.SetBounds(v, s.savedLo[v], s.savedUp[v])
	}
}

func (s *Solver) restoreVar(v int) error {
	return s.prob.SetBounds(v, s.savedLo[v], s.savedUp[v])
}

// pickBranch returns the integer variable to branch on — the one whose LP
// value is nearest 0.5 — or -1 when the point is integral on all integer
// variables.
func (s *Solver) pickBranch(x []float64, opts Options) int {
	// Restrict to the highest branch priority with a fractional variable.
	maxPrio := 0
	if opts.BranchPriority != nil {
		found := false
		for _, v := range s.integers {
			f := frac(x[v])
			if f <= intTol || f >= 1-intTol {
				continue
			}
			if p := opts.BranchPriority[v]; !found || p > maxPrio {
				maxPrio, found = p, true
			}
		}
	}
	best, bestScore := -1, -1.0
	for _, v := range s.integers {
		if opts.BranchPriority != nil && opts.BranchPriority[v] != maxPrio {
			continue
		}
		f := frac(x[v])
		if f <= intTol || f >= 1-intTol {
			continue
		}
		if score := 0.5 - math.Abs(f-0.5); score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// roundRepair rounds every integer variable of a fractional point to 1
// when it is at least at, else to 0, and re-solves the continuous rest; it
// returns ok=false when the rounding is infeasible. at = 0.5 rounds to
// nearest; at = 1−intTol keeps only the variables already at 1, which
// repairs where nearest-rounding is infeasible.
func (s *Solver) roundRepair(x []float64, at float64) ([]float64, float64, bool) {
	var fixings *fixing
	for _, v := range s.integers {
		val := 0.0
		if x[v] >= at {
			val = 1
		}
		fixings = &fixing{v: v, val: val, prev: fixings} //janus:allow(hotalloc): one fixing entry per integer variable, on the periodic rounding schedule only
	}
	res, err := s.solveLP(fixings, nil)
	// The continuous re-solve may have moved other integer variables to
	// fractional values; verify.
	if err != nil || res.Status != lp.Optimal || !s.isIntegral(res.X) {
		return nil, 0, false
	}
	return res.X, res.Objective, true
}

// isIntegral reports whether every integer variable is 0/1 in x.
func (s *Solver) isIntegral(x []float64) bool {
	for _, v := range s.integers {
		if f := frac(x[v]); f > intTol && f < 1-intTol {
			return false
		}
	}
	return true
}

func frac(v float64) float64 {
	return v - math.Floor(v)
}
