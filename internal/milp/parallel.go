package milp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"janus/internal/lp"
)

// Parallel branch and bound.
//
// Workers pull nodes from a shared best-first priority queue (highest LP
// bound first, deeper node on ties so someone is always diving for
// incumbents). Each worker owns a private clone of the problem plus its own
// simplex workspace, so node LP re-solves — the dominant cost — run with no
// shared mutable state; warm-start bases attached to nodes are immutable
// after snapshot and flow freely between workers. Everything coordinated —
// the queue, the incumbent, node/iteration counters, the stall window — sits
// behind one mutex, held only between LP solves.
//
// Exploration order is nondeterministic under contention, so which of
// several ε-optimal incumbents wins can differ run to run; the objective
// value and the bound proof do not. internal/milp/difftest holds the
// permanent differential gate asserting serial/parallel agreement.

// pqNode is a heap entry. seq breaks remaining ties FIFO so the order is a
// total one and heap behavior is reproducible given one worker.
type pqNode struct {
	*node
	seq int64
}

type nodeHeap []pqNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound { //janus:allow(floatcmp): heap ordering: equal bounds fall through to deterministic tie-breaks
		return h[i].bound > h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// push and pop are a typed binary heap (same sift order as
// container/heap), so enqueueing a node in the worker loop does not box
// every pqNode into an interface.
func (h *nodeHeap) push(it pqNode) {
	*h = append(*h, it) //janus:allow(hotalloc): queue growth is amortized: the heap keeps its capacity across pushes
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.Less(i, parent) {
			break
		}
		s.Swap(i, parent)
		i = parent
	}
}

func (h *nodeHeap) pop() pqNode {
	s := *h
	n := len(s) - 1
	s.Swap(0, n)
	it := s[n]
	s[n] = pqNode{}
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= len(s) {
			break
		}
		if r := j + 1; r < len(s) && s.Less(r, j) {
			j = r
		}
		if !s.Less(j, i) {
			break
		}
		s.Swap(i, j)
		i = j
	}
	return it
}

// parSearch is the shared state of one parallel solve.
type parSearch struct {
	mu   sync.Mutex
	cond *sync.Cond

	open nodeHeap
	seq  int64
	// outstanding = queued + in-flight nodes; the search is exhausted when
	// it reaches zero with the queue empty.
	outstanding int
	// inflight tracks the bound of the node each busy worker holds, so the
	// final proof bound can account for abandoned in-flight work.
	inflight map[int]float64

	nodes       int
	lpIters     int
	refacts     int
	priceSw     int
	incObj      float64
	incumbent   []float64
	lastImprove int

	stopped  bool
	hitLimit bool // a node/time/stall budget ended the search
	err      error
}

func newParSearch() *parSearch {
	ps := &parSearch{incObj: math.Inf(-1), inflight: map[int]float64{}}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

// acceptLocked records a candidate incumbent; callers hold mu.
func (ps *parSearch) acceptLocked(x []float64, obj float64) {
	if obj > ps.incObj {
		ps.incObj = obj
		ps.incumbent = append([]float64(nil), x...) //janus:allow(hotalloc): the incumbent is copied only when the bound improves
		ps.lastImprove = ps.nodes
	}
}

// haltLocked stops the search; callers hold mu.
func (ps *parSearch) haltLocked(limit bool, err error) {
	ps.stopped = true
	if limit {
		ps.hitLimit = true
	}
	if err != nil && ps.err == nil {
		ps.err = err
	}
	ps.cond.Broadcast()
}

// pushLocked queues a node; callers hold mu.
func (ps *parSearch) pushLocked(nd *node) {
	ps.seq++
	ps.open.push(pqNode{node: nd, seq: ps.seq})
	ps.outstanding++
	ps.cond.Signal()
}

// finishLocked retires one in-flight node; callers hold mu.
func (ps *parSearch) finishLocked(id int) {
	delete(ps.inflight, id)
	ps.outstanding--
	if ps.outstanding == 0 {
		ps.cond.Broadcast() // search exhausted: wake sleepers so they exit
	}
}

// gapOKLocked reports whether bound is within the relative gap of the
// incumbent; callers hold mu.
func (ps *parSearch) gapOKLocked(bound, relGap float64) bool {
	if math.IsInf(ps.incObj, -1) {
		return false
	}
	denom := math.Max(1, math.Abs(ps.incObj))
	return (bound-ps.incObj)/denom <= relGap
}

// next blocks until a node is available and claims it, or reports false when
// the search is over (exhausted, budget hit, cancelled, or failed). Nodes
// whose bound can no longer beat the incumbent are retired without a solve.
// The claimed node is counted against MaxNodes here, under the lock, so the
// limit is respected exactly even with many workers in flight.
func (ps *parSearch) next(ctx context.Context, id int, opts Options, deadline time.Time) (*node, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		for len(ps.open) == 0 && ps.outstanding > 0 && !ps.stopped {
			ps.cond.Wait()
		}
		if ps.stopped || ps.outstanding == 0 {
			return nil, false
		}
		if err := ctx.Err(); err != nil {
			ps.haltLocked(false, fmt.Errorf("milp: solve aborted after %d nodes: %w", ps.nodes, err)) //janus:allow(hotalloc): error construction on the failure path only
			return nil, false
		}
		if ps.nodes >= opts.MaxNodes {
			ps.haltLocked(true, nil)
			return nil, false
		}
		if opts.StallNodes > 0 && ps.incumbent != nil && ps.nodes-ps.lastImprove >= opts.StallNodes {
			ps.haltLocked(true, nil)
			return nil, false
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			ps.haltLocked(true, nil)
			return nil, false
		}
		it := ps.open.pop()
		if ps.gapOKLocked(it.bound, opts.RelGap) || it.bound <= ps.incObj+pruneTol {
			ps.outstanding--
			if ps.outstanding == 0 {
				ps.cond.Broadcast()
			}
			continue // pruned by bound; never solved, not counted
		}
		ps.nodes++
		ps.inflight[id] = it.bound
		return it.node, true
	}
}

// worker is the per-goroutine solver state: a private clone of the problem
// (bound fixings and simplex runs never touch another worker's copy) plus
// worker-local pseudocost accumulators. Learning pseudocosts locally instead
// of sharing them trades a little branching quality for lock-free scoring;
// the difftest gate bounds the quality cost at "still within RelGap".
type worker struct {
	*Solver
	id int
}

func newWorker(parent *Solver, id int) *worker {
	w := &worker{Solver: NewSolver(parent.prob.Clone(), parent.integers), id: id}
	w.saveBounds()
	nInt := len(w.integers)
	w.pcUp = make([]float64, nInt)
	w.pcDown = make([]float64, nInt)
	w.pcUpN = make([]int, nInt)
	w.pcDownN = make([]int, nInt)
	return w
}

// run is the worker loop: claim a node, re-solve its LP on the private
// clone, then publish the outcome (incumbent, children, or nothing) under
// the shared lock.
//
//janus:hotpath
func (w *worker) run(ctx context.Context, ps *parSearch, opts Options, deadline time.Time, intIndex map[int]int) {
	for {
		nd, ok := ps.next(ctx, w.id, opts, deadline)
		if !ok {
			return
		}
		res, err := w.solveLP(nd.fixings, nd.basis)
		if err != nil {
			ps.mu.Lock()
			ps.finishLocked(w.id)
			ps.haltLocked(false, fmt.Errorf("milp: node solve: %w", err)) //janus:allow(hotalloc): error construction on the failure path only
			ps.mu.Unlock()
			return
		}

		ps.mu.Lock()
		ps.lpIters += res.Iterations
		ps.refacts += res.Refactorizations
		ps.priceSw += res.PricingSwitches
		if res.Status != lp.Optimal || res.Objective <= ps.incObj+pruneTol {
			// Infeasible, an iteration limit (dropped conservatively, as in
			// the serial dive), or dominated by the incumbent.
			ps.finishLocked(w.id)
			ps.mu.Unlock()
			continue
		}
		doRound := ps.nodes < 64 || ps.nodes%16 == 1
		ps.mu.Unlock()

		// Branch selection and rounding run unlocked: they only touch the
		// worker's clone and local pseudocosts.
		frac := w.pickBranch(res.X, opts, intIndex)
		if frac < 0 {
			ps.mu.Lock()
			ps.acceptLocked(res.X, res.Objective)
			ps.finishLocked(w.id)
			ps.mu.Unlock()
			continue
		}
		if i, ok := intIndex[frac]; ok {
			w.observeDegradation(i, nd, res.Objective)
		}
		var rx []float64
		var robj float64
		var rok bool
		if doRound {
			rx, robj, rok = w.roundAndRepair(res.X)
		}

		children := w.children(&node{ //janus:allow(hotalloc): the re-bounded parent must outlive the step: its children share it by design
			fixings: nd.fixings, bound: res.Objective, basis: res.Basis, depth: nd.depth,
		}, frac, res.X[frac])

		ps.mu.Lock()
		if rok {
			ps.acceptLocked(rx, robj)
		}
		for _, ch := range children {
			ps.pushLocked(ch)
		}
		ps.finishLocked(w.id)
		ps.mu.Unlock()
	}
}

// solveParallel runs branch and bound on opts.Workers concurrent workers.
// The root relaxation and incumbent seeding run serially on the original
// problem (bounds saved and restored exactly as in the serial dive); only
// the tree search fans out.
func (s *Solver) solveParallel(ctx context.Context, opts Options) (*Solution, error) {
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	s.saveBounds()
	defer s.restoreBounds()
	nInt := len(s.integers)
	s.pcUp = make([]float64, nInt)
	s.pcDown = make([]float64, nInt)
	s.pcUpN = make([]int, nInt)
	s.pcDownN = make([]int, nInt)
	intIndex := make(map[int]int, nInt)
	for i, v := range s.integers {
		intIndex[v] = i
	}

	sol := &Solution{Status: Limit, Objective: math.Inf(-1), Bound: math.Inf(1), Workers: opts.Workers}

	root, err := s.solveLP(nil, opts.WarmStart)
	if err != nil {
		return nil, err
	}
	sol.addLP(root)
	switch root.Status {
	case lp.Infeasible:
		sol.Status = Infeasible
		return sol, nil
	case lp.Unbounded:
		sol.Status = Unbounded
		return sol, nil
	case lp.IterLimit:
		sol.Status = Limit
		return sol, nil
	}
	sol.RootDuals = root.Duals
	sol.RootBasis = root.Basis
	sol.Bound = root.Objective

	ps := newParSearch()
	if opts.MIPStart != nil {
		if res, err := s.solveLP(fixingChain(opts.MIPStart), nil); err == nil && res.Status == lp.Optimal && s.isIntegral(res.X) {
			ps.acceptLocked(res.X, res.Objective)
		}
	}
	if x, obj, ok := s.roundAndRepair(root.X); ok {
		ps.acceptLocked(x, obj)
	}
	if x, obj, ok := s.greedyIncumbent(root.X); ok {
		ps.acceptLocked(x, obj)
	}

	frac := s.pickBranch(root.X, opts, intIndex)
	if frac < 0 {
		if root.Status == lp.Optimal {
			ps.acceptLocked(root.X, root.Objective)
			sol.Status = Optimal
			sol.Objective = ps.incObj
			sol.X = ps.incumbent
			sol.Bound = root.Objective
			sol.Nodes = 1
			return sol, nil
		}
		sol.Status = Limit
		return sol, nil
	}
	for _, ch := range s.children(&node{bound: root.Objective, basis: root.Basis}, frac, root.X[frac]) {
		ps.pushLocked(ch)
	}

	var wg sync.WaitGroup
	for id := 0; id < opts.Workers; id++ {
		w := newWorker(s, id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, ps, opts, deadline, intIndex)
		}()
	}
	wg.Wait()

	if ps.err != nil {
		return nil, ps.err
	}

	sol.Nodes = ps.nodes
	sol.LPIterations += ps.lpIters
	sol.Refactorizations += ps.refacts
	sol.PricingSwitches += ps.priceSw

	// Final proof bound: the incumbent, any still-open node, and any node a
	// worker abandoned mid-solve when the search stopped.
	bound := ps.incObj
	for _, it := range ps.open {
		if it.bound > bound {
			bound = it.bound
		}
	}
	for _, b := range ps.inflight {
		if b > bound {
			bound = b
		}
	}
	if math.IsInf(bound, -1) {
		bound = sol.Bound
	}
	sol.Bound = bound

	if ps.incumbent == nil {
		if ps.hitLimit {
			sol.Status = Limit
		} else {
			sol.Status = Infeasible
		}
		return sol, nil
	}
	sol.Objective = ps.incObj
	sol.X = ps.incumbent
	if (len(ps.open) == 0 && len(ps.inflight) == 0) || ps.gapOKLocked(bound, opts.RelGap) {
		sol.Status = Optimal
	} else {
		sol.Status = Feasible
	}
	return sol, nil
}
