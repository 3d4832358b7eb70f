package milp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"janus/internal/lp"
)

// One branch and bound.
//
// Workers claim nodes from a shared frontier, re-solve the node LP, and
// publish the outcome (an incumbent, two children, or nothing). Worker 0 is
// the goroutine that called Solve, on the solver's own problem; every other
// worker owns a clone of the problem plus its own simplex workspace, so node
// LP re-solves — the dominant cost — run with no shared mutable state, and
// the warm-start bases attached to nodes are immutable after snapshot and
// flow freely between workers. Everything coordinated — the frontier, the
// incumbent, the node and pivot counters, the stall window — sits behind one
// mutex, held only between LP solves.
//
// The worker count selects the frontier's order and nothing else. One
// worker takes the newest node first: the child it dives into re-solves on
// the factorization its parent's LP just left in the workspace, one bound
// change away, and the whole solve is deterministic. Several workers take
// the highest LP bound first (deeper node on ties so someone is always
// diving for incumbents): a node then rarely follows its parent on the same
// workspace, so a dive would buy nothing, and the best bound shrinks the
// proof soonest. That order is nondeterministic under contention, so which
// of several ε-optimal incumbents wins can differ run to run; the objective
// value and the bound proof do not. internal/milp/difftest holds the
// permanent differential gate asserting one worker and many agree.

// frontier is the set of open nodes: a stack when lifo, otherwise a binary
// heap on (bound, depth, seq) through container/heap.
type frontier struct {
	lifo  bool
	nodes []*node
	seq   int64
}

func (f *frontier) Len() int { return len(f.nodes) }
func (f *frontier) Less(i, j int) bool {
	a, b := f.nodes[i], f.nodes[j]
	if a.bound != b.bound { //janus:allow(floatcmp): heap ordering: equal bounds fall through to deterministic tie-breaks
		return a.bound > b.bound
	}
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	return a.seq < b.seq
}
func (f *frontier) Swap(i, j int) { f.nodes[i], f.nodes[j] = f.nodes[j], f.nodes[i] }
func (f *frontier) Push(x any) {
	f.nodes = append(f.nodes, x.(*node)) //janus:allow(hotalloc): frontier growth is amortized: the slice keeps its capacity across pushes
}
func (f *frontier) Pop() any {
	n := len(f.nodes) - 1
	nd := f.nodes[n]
	f.nodes[n] = nil
	f.nodes = f.nodes[:n]
	return nd
}

func (f *frontier) push(nd *node) {
	if f.lifo {
		f.Push(nd)
		return
	}
	f.seq++
	nd.seq = f.seq
	heap.Push(f, nd)
}

func (f *frontier) pop() *node {
	if f.lifo {
		return f.Pop().(*node)
	}
	return heap.Pop(f).(*node)
}

// search is the state of one branch-and-bound run, shared by its workers.
type search struct {
	opts     Options   // defaults filled in
	deadline time.Time // zero without a TimeLimit

	mu   sync.Mutex
	cond *sync.Cond

	open frontier
	// outstanding = queued + in-flight nodes; the tree is exhausted when it
	// reaches zero.
	outstanding int

	// sol accumulates the node and LP counters as the search runs.
	sol         *Solution
	incObj      float64
	incumbent   []float64
	lastImprove int

	stopped  bool
	hitLimit bool // a node/time/stall budget ended the search
	err      error
}

// newSearch readies s as worker 0 of a run under opts; the caller restores
// the bounds prepare snapshots.
func (s *Solver) newSearch(opts Options) *search {
	s.prepare()
	sr := &search{
		opts:   opts,
		open:   frontier{lifo: opts.Workers == 1},
		sol:    &Solution{Status: Limit, Objective: math.Inf(-1), Bound: math.Inf(1), Workers: opts.Workers},
		incObj: math.Inf(-1),
	}
	if opts.TimeLimit > 0 {
		sr.deadline = time.Now().Add(opts.TimeLimit)
	}
	sr.cond = sync.NewCond(&sr.mu)
	return sr
}

// relaxRoot solves the root relaxation on s and seeds the incumbent: the
// caller's MIP start first, then the rounding heuristics. It returns no
// relaxation when the root has no optimum to branch from; sol.Status then
// says why.
func (sr *search) relaxRoot(s *Solver, warm *lp.Basis) (*lp.Solution, error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	root, err := s.solveLP(nil, warm)
	if err != nil {
		return nil, err
	}
	sr.sol.addLP(root)
	switch root.Status {
	case lp.Infeasible:
		sr.sol.Status = Infeasible
		return nil, nil
	case lp.Unbounded:
		sr.sol.Status = Unbounded
		return nil, nil
	case lp.IterLimit:
		return nil, nil
	}
	sr.sol.RootDuals = root.Duals
	sr.sol.RootBasis = root.Basis
	sr.sol.Bound = root.Objective

	if sr.opts.MIPStart != nil {
		if res, err := s.solveLP(fixingChain(sr.opts.MIPStart), nil); err == nil && res.Status == lp.Optimal && s.isIntegral(res.X) {
			sr.acceptLocked(res.X, res.Objective)
		}
	}
	if x, obj, ok := s.roundRepair(root.X, 0.5); ok {
		sr.acceptLocked(x, obj)
	}
	if x, obj, ok := s.roundRepair(root.X, 1-intTol); ok {
		sr.acceptLocked(x, obj)
	}
	return root, nil
}

// acceptLocked records a candidate incumbent; callers hold mu.
func (sr *search) acceptLocked(x []float64, obj float64) {
	if obj > sr.incObj {
		sr.incObj = obj
		sr.incumbent = append([]float64(nil), x...) //janus:allow(hotalloc): the incumbent is copied only when the bound improves
		sr.lastImprove = sr.sol.Nodes
	}
}

// haltLocked stops the search; callers hold mu.
func (sr *search) haltLocked(limit bool, err error) {
	sr.stopped = true
	if limit {
		sr.hitLimit = true
	}
	if err != nil && sr.err == nil {
		sr.err = err
	}
	sr.cond.Broadcast()
}

// pushLocked queues a node; callers hold mu.
func (sr *search) pushLocked(nd *node) {
	sr.open.push(nd)
	sr.outstanding++
	sr.cond.Signal()
}

// retireLocked retires one claimed node; callers hold mu.
func (sr *search) retireLocked() {
	sr.outstanding--
	if sr.outstanding == 0 {
		sr.cond.Broadcast() // tree exhausted: wake sleepers so they exit
	}
}

// hasIncumbentLocked reports whether any incumbent was accepted; callers
// hold mu. An empty model's incumbent is an empty vector, so the objective,
// not the vector, is what says so.
func (sr *search) hasIncumbentLocked() bool { return !math.IsInf(sr.incObj, -1) }

// gapOKLocked reports whether bound is within the relative gap of the
// incumbent; callers hold mu.
func (sr *search) gapOKLocked(bound float64) bool {
	if !sr.hasIncumbentLocked() {
		return false
	}
	denom := math.Max(1, math.Abs(sr.incObj))
	return (bound-sr.incObj)/denom <= sr.opts.RelGap
}

// claim blocks until a node is available and claims it, or returns nil when
// the search is over (exhausted, budget hit, cancelled, or failed). Nodes
// whose bound can no longer beat the incumbent are retired without a solve.
// The claimed node is counted against MaxNodes here, under the lock, so the
// limit is respected exactly even with many workers in flight.
func (sr *search) claim(ctx context.Context) *node {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for {
		for sr.open.Len() == 0 && sr.outstanding > 0 && !sr.stopped {
			sr.cond.Wait()
		}
		if sr.stopped || sr.outstanding == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			sr.haltLocked(false, fmt.Errorf("milp: solve aborted after %d nodes: %w", sr.sol.Nodes, err)) //janus:allow(hotalloc): error construction on the failure path only
			return nil
		}
		if sr.sol.Nodes >= sr.opts.MaxNodes ||
			(sr.opts.StallNodes > 0 && sr.hasIncumbentLocked() && sr.sol.Nodes-sr.lastImprove >= sr.opts.StallNodes) ||
			(!sr.deadline.IsZero() && time.Now().After(sr.deadline)) {
			sr.haltLocked(true, nil)
			return nil
		}
		nd := sr.open.pop()
		if sr.gapOKLocked(nd.bound) || nd.bound <= sr.incObj+pruneTol {
			sr.retireLocked() // pruned by bound; never solved, not counted
			continue
		}
		sr.sol.Nodes++
		return nd
	}
}

// work is the worker loop: claim a node, re-solve its LP on w's problem,
// then publish the outcome (incumbent, children, or nothing) under the
// shared lock. It returns when claim does: a worker never abandons a node,
// so once every worker is back the frontier holds all that is unexplored.
//
//janus:hotpath
func (sr *search) work(ctx context.Context, w *Solver) {
	for nd := sr.claim(ctx); nd != nil; nd = sr.claim(ctx) {
		res, err := w.solveLP(nd.fixings, nd.basis)

		sr.mu.Lock()
		if err != nil {
			sr.retireLocked()
			sr.haltLocked(false, fmt.Errorf("milp: node solve: %w", err)) //janus:allow(hotalloc): error construction on the failure path only
			sr.mu.Unlock()
			return
		}
		sr.sol.addLP(res)
		if res.Status != lp.Optimal || res.Objective <= sr.incObj+pruneTol {
			// Infeasible, an iteration limit (dropped conservatively), or
			// dominated by the incumbent.
			sr.retireLocked()
			sr.mu.Unlock()
			continue
		}
		// Round for incumbents: every node early on (cheap and it is what
		// enables aggressive pruning), then periodically.
		doRound := sr.sol.Nodes < 64 || sr.sol.Nodes%16 == 1
		sr.mu.Unlock()

		// Branch selection and rounding run unlocked: they only touch the
		// worker's own problem.
		frac := w.pickBranch(res.X, sr.opts)
		var children [2]*node
		var rx []float64
		var robj float64
		var rok bool
		if frac >= 0 {
			if doRound {
				rx, robj, rok = w.roundRepair(res.X, 0.5)
			}
			children = w.children(&node{ //janus:allow(hotalloc): the re-bounded parent must outlive the step: its children share it by design
				fixings: nd.fixings, bound: res.Objective, basis: res.Basis, depth: nd.depth,
			}, frac, res.X[frac])
		}

		sr.mu.Lock()
		if frac < 0 {
			sr.acceptLocked(res.X, res.Objective)
		} else {
			if rok {
				sr.acceptLocked(rx, robj)
			}
			sr.pushLocked(children[0])
			sr.pushLocked(children[1])
		}
		sr.retireLocked()
		sr.mu.Unlock()
	}
}

// result closes the run once every worker has returned: the proof bound is
// the best of the incumbent and the nodes still open, and the incumbent is
// optimal when nothing is open or that bound is within the gap.
func (sr *search) result() (*Solution, error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.err != nil {
		return nil, sr.err
	}
	sol := sr.sol
	bound := sr.incObj
	for _, nd := range sr.open.nodes {
		if nd.bound > bound {
			bound = nd.bound
		}
	}
	if !math.IsInf(bound, -1) {
		sol.Bound = bound
	}
	switch {
	case sr.hasIncumbentLocked():
		sol.Objective = sr.incObj
		sol.X = sr.incumbent
		sol.Status = Feasible
		if sr.open.Len() == 0 || sr.gapOKLocked(bound) {
			sol.Status = Optimal
		}
	case sr.hitLimit:
		sol.Status = Limit
	default:
		sol.Status = Infeasible
	}
	return sol, nil
}
