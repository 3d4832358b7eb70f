// Package lp implements a bounded-variable revised-simplex linear
// programming solver. It stands in for the commercial solver (Gurobi) used
// by the Janus paper: it supports the features the paper's configurator
// relies on — warm starts from a previous basis (§5.4, §7.2) and dual
// values for sensitivity analysis of bottleneck links (§5.6).
//
// The solver maximizes c·x subject to linear constraints and variable
// bounds. Internally every constraint row gets one logical (slack)
// variable. The basis inverse is held in product form: a dense inverse
// computed at the last refactorization (by an LU that peels slack columns
// and singletons off the basis and eliminates densely only on the rest;
// factor.go) plus an eta file of sparse pivot updates, applied by
// FTRAN/BTRAN. Pricing runs over a bounded candidate
// list refreshed by full Dantzig scans, with Bland's rule as the
// anti-cycling fallback. A warm basis that is dual but not primal feasible
// — a branch-and-bound child — is re-solved by a bounded dual simplex
// instead (dual.go), on the same factorization. All per-pivot scratch lives
// in a workspace owned by the Problem and reused across solves, so repeated
// warm re-solves (the branch-and-bound node pattern) run nearly
// allocation-free.
//
// A Problem must not be solved concurrently from multiple goroutines; use
// Clone to give each solver goroutine an independent copy.
package lp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Sense is a constraint relation.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	GE              // a·x ≥ b
	EQ              // a·x = b
)

// Inf is the bound used for unbounded variables.
var Inf = math.Inf(1)

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
type Problem struct {
	nStruct int // structural variable count
	lo, up  []float64
	obj     []float64

	rows  []row
	sense []Sense
	rhs   []float64

	// version counts structural mutations (new variables or rows); the
	// workspace rebuilds its caches when it trails the problem.
	version uint64
	// ws is the reusable solver workspace; nil until the first Solve and
	// deliberately not copied by Clone.
	ws *workspace
}

type row struct {
	vars  []int
	coefs []float64
}

// NewProblem returns an empty maximization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddVariable adds a structural variable with bounds [lo, up] and objective
// coefficient obj, returning its index.
func (p *Problem) AddVariable(lo, up, obj float64) int {
	if lo > up {
		lo, up = up, lo
	}
	p.lo = append(p.lo, lo)
	p.up = append(p.up, up)
	p.obj = append(p.obj, obj)
	p.nStruct++
	p.version++
	return p.nStruct - 1
}

// AddBinary adds a [0,1] variable with the given objective coefficient.
// (The MILP layer enforces integrality; at the LP layer it is continuous.)
func (p *Problem) AddBinary(obj float64) int {
	return p.AddVariable(0, 1, obj)
}

// NumVariables returns the structural variable count.
func (p *Problem) NumVariables() int { return p.nStruct }

// NumConstraints returns the row count.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// SetObjective replaces the objective coefficient of a variable.
func (p *Problem) SetObjective(v int, obj float64) error {
	if v < 0 || v >= p.nStruct {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	p.obj[v] = obj
	return nil
}

// SetBounds replaces a variable's bounds (used by branch & bound to fix
// binaries).
func (p *Problem) SetBounds(v int, lo, up float64) error {
	if v < 0 || v >= p.nStruct {
		return fmt.Errorf("lp: variable %d out of range", v) //janus:allow(hotalloc): error construction on the failure path only
	}
	if lo > up {
		return fmt.Errorf("lp: variable %d bounds inverted: [%g,%g]", v, lo, up) //janus:allow(hotalloc): error construction on the failure path only
	}
	p.lo[v], p.up[v] = lo, up
	return nil
}

// Bounds returns a variable's bounds.
func (p *Problem) Bounds(v int) (lo, up float64) { return p.lo[v], p.up[v] }

// ObjectiveCoef returns a variable's objective coefficient.
func (p *Problem) ObjectiveCoef(v int) float64 { return p.obj[v] }

// Constraint returns row i's sense, right-hand side, and terms (a copy, in
// ascending variable order). It lets callers — feasibility checkers, the
// differential solver harness — evaluate solutions without reaching into
// the problem's internals.
func (p *Problem) Constraint(i int) (Sense, float64, []Term) {
	r := &p.rows[i]
	terms := make([]Term, len(r.vars))
	for k, v := range r.vars {
		terms[k] = Term{Var: v, Coef: r.coefs[k]}
	}
	return p.sense[i], p.rhs[i], terms
}

// Clone returns an independent deep copy of the problem. Concurrent solver
// workers each own a clone: Solve, SetBounds, and SetObjective on one clone
// never observe or disturb another, so branch-and-bound workers can re-solve
// LPs with different bound fixings in parallel. A Basis snapshotted from one
// clone warm-starts any other clone of the same problem (the variable and
// row layouts are identical). The clone starts with a fresh workspace; the
// original's factorization and scratch buffers are never shared.
func (p *Problem) Clone() *Problem {
	c := &Problem{
		nStruct: p.nStruct,
		lo:      append([]float64(nil), p.lo...),
		up:      append([]float64(nil), p.up...),
		obj:     append([]float64(nil), p.obj...),
		rows:    make([]row, len(p.rows)),
		sense:   append([]Sense(nil), p.sense...),
		rhs:     append([]float64(nil), p.rhs...),
	}
	for i := range p.rows {
		c.rows[i] = row{
			vars:  append([]int(nil), p.rows[i].vars...),
			coefs: append([]float64(nil), p.rows[i].coefs...),
		}
	}
	return c
}

// AddConstraint adds a row Σ terms (sense) rhs and returns its index.
// Duplicate variables within one row are summed.
func (p *Problem) AddConstraint(sense Sense, rhs float64, terms []Term) (int, error) {
	merged := map[int]float64{}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.nStruct {
			return 0, fmt.Errorf("lp: constraint references variable %d out of range", t.Var)
		}
		merged[t.Var] += t.Coef
	}
	r := row{vars: make([]int, 0, len(merged)), coefs: make([]float64, 0, len(merged))}
	// Deterministic order: ascending variable index.
	for v := range merged {
		r.vars = append(r.vars, v)
	}
	sortInts(r.vars)
	for _, v := range r.vars {
		r.coefs = append(r.coefs, merged[v])
	}
	p.rows = append(p.rows, r)
	p.sense = append(p.sense, sense)
	p.rhs = append(p.rhs, rhs)
	p.version++
	return len(p.rows) - 1, nil
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the structural variable values.
	X []float64
	// Duals holds one shadow price per constraint row (y in the simplex).
	// Only meaningful at Optimal.
	Duals []float64
	// ReducedCosts holds d_j = c_j − y·A_j per structural variable.
	ReducedCosts []float64
	// Basis snapshots the final basis for warm starts.
	Basis *Basis
	// Iterations is the total simplex pivot count.
	Iterations int
	// Refactorizations counts basis refactorizations during the solve: the
	// initial factorization (unless a retained one was reused), eta-file
	// limit compactions, and numerical-recovery reinversions.
	Refactorizations int
	// PricingSwitches counts candidate-list exhaustions that fell back to a
	// full Dantzig pricing scan (which also refills the list). Every solve
	// that prices at least once records at least one — the scan that proves
	// optimality — so values above ~2 indicate genuine mid-solve refreshes.
	PricingSwitches int
}

// Basis is an opaque snapshot of a simplex basis, used to warm-start a
// subsequent solve on the same (or a slightly modified) problem.
type Basis struct {
	basic  []int  // row -> variable index (structural or logical)
	status []int8 // variable -> nonbasicLower/nonbasicUpper/basic
	n      int    // total variables when snapshotted
	m      int    // rows when snapshotted
}

// Options control a solve.
type Options struct {
	// MaxIters bounds total pivots; 0 means a size-derived default.
	MaxIters int
	// WarmStart, when non-nil, seeds the solve with a previous basis.
	WarmStart *Basis
}

const (
	feasTol  = 1e-7
	costTol  = 1e-7
	pivotTol = 1e-9
	// blandAfter switches to Bland's rule after this many non-improving
	// pivots, guaranteeing termination under degeneracy.
	blandAfter = 400
)

var errSingular = errors.New("lp: singular basis")

// variable status codes
const (
	atLower int8 = iota
	atUpper
	inBasis
)

// Solve optimizes the problem. The problem may be re-solved after bound or
// objective changes; pass the previous Solution.Basis in Options.WarmStart
// to reuse it. The basis picks the method: a warm basis that still prices
// optimally but violates a bound (a tightened one, say) starts with the
// dual simplex; every other start — cold, primal feasible, or priced out by
// an objective change — takes the primal. Solve reuses the Problem's
// workspace and is therefore not safe for concurrent use on one Problem —
// see Clone.
func (p *Problem) Solve(opts Options) (*Solution, error) {
	ws := p.workspace()
	s := &simplex{p: p, ws: ws, n: ws.n, m: ws.m} //janus:allow(hotalloc): one solver handle per LP solve, amortized over all its pivots
	s.resetBasis()
	warm := s.loadBasis(opts.WarmStart)
	s.syncVarRow()
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 200*(s.m+s.n) + 20000
	}
	// Reuse the retained factorization when the loaded basis is exactly the
	// one it represents (the warm-resolve fast path); otherwise refactorize,
	// repairing a singular warm basis by falling back to the all-logical
	// basis.
	if !ws.facMatchesBasis() {
		if err := ws.refactorize(); err != nil {
			s.resetBasis()
			s.syncVarRow()
			warm = false
			if err := ws.refactorize(); err != nil {
				return nil, err
			}
		}
	}
	s.computeBasics()

	// A warm basis that prices optimally but violates bounds — a
	// branch-and-bound child — goes to the dual simplex first. What the dual
	// reaches is optimal if it also prices optimally on the real costs (its
	// ratio test may have shifted some); otherwise, and wherever the dual
	// stopped short of a proof, the primal carries on from its basis.
	if warm && s.infeasibility() > feasTol && s.dualFeasible() {
		ws.dualRun = s.dual(maxIters)
	}
	var status Status
	priced := false
	switch {
	case ws.dualRun == dualProvedInfeasible:
		status = Infeasible
	case ws.dualRun == dualReachedFeasible && s.dualFeasible():
		status, priced = Optimal, true
	default:
		status = s.run(maxIters)
	}
	sol := s.extract(status, priced)
	return sol, nil
}

// simplex holds the transient state of one solve; all vectors live in the
// Problem's reusable workspace.
type simplex struct {
	p  *Problem
	ws *workspace
	n  int // structural count
	m  int // rows

	iters      int
	nonImprove int
}

// resetBasis installs the all-logical basis with structural variables at
// their finite bound nearest zero.
func (s *simplex) resetBasis() {
	ws := s.ws
	for v := 0; v < s.n+s.m; v++ {
		ws.status[v] = atLower
		if math.IsInf(ws.lo[v], -1) {
			ws.status[v] = atUpper
			if math.IsInf(ws.up[v], 1) {
				// Free variable: rest at zero via lower status with value 0.
				ws.status[v] = atLower
			}
		}
	}
	for r := 0; r < s.m; r++ {
		v := s.n + r
		ws.basic[r] = v
		ws.status[v] = inBasis
	}
}

// loadBasis overlays a warm-start snapshot onto the default basis installed
// by resetBasis, repairing out-of-range or duplicated basic entries with the
// row's logical variable. It reports whether there was a compatible
// snapshot to load.
func (s *simplex) loadBasis(b *Basis) bool {
	ws := s.ws
	if b == nil || b.m != s.m || b.n > s.n+s.m {
		return false // no or incompatible snapshot; keep default basis
	}
	// Variables added after the snapshot keep their default status.
	for v := 0; v < b.n && v < s.n+s.m; v++ {
		ws.status[v] = b.status[v]
	}
	mark := ws.mark // all false between uses
	for r := 0; r < s.m; r++ {
		v := b.basic[r]
		if v < 0 || v >= s.n+s.m || mark[v] {
			v = s.n + r // repair with the row's logical
		}
		mark[v] = true
		ws.basic[r] = v
		ws.status[v] = inBasis
	}
	// Any variable marked basic but not in the basic list is demoted.
	for v := range ws.status {
		if ws.status[v] == inBasis && !mark[v] {
			ws.status[v] = atLower
			if math.IsInf(ws.lo[v], -1) {
				ws.status[v] = atUpper
			}
		}
	}
	for r := 0; r < s.m; r++ {
		mark[ws.basic[r]] = false
	}
	return true
}

// syncVarRow rebuilds the variable→basic-row index after basis loading;
// pivots maintain it incrementally from here on.
func (s *simplex) syncVarRow() {
	ws := s.ws
	for v := range ws.varRow {
		ws.varRow[v] = -1
	}
	for r, v := range ws.basic {
		ws.varRow[v] = int32(r)
	}
}

// nonbasicValue returns the resting value of a nonbasic variable. Callers
// only pass nonbasic variables, whose value is fully determined by their
// bound status.
func (s *simplex) nonbasicValue(v int) float64 {
	ws := s.ws
	if ws.status[v] == atUpper {
		return ws.up[v]
	}
	if math.IsInf(ws.lo[v], -1) {
		return 0 // free variable resting at zero
	}
	return ws.lo[v]
}

// computeBasics recomputes xB = B⁻¹ (b − N x_N).
func (s *simplex) computeBasics() {
	ws := s.ws
	m := s.m
	resid := ws.resid
	copy(resid, s.p.rhs)
	for v := 0; v < s.n+s.m; v++ {
		if ws.status[v] == inBasis {
			continue
		}
		x := s.nonbasicValue(v)
		if x == 0 { //janus:allow(floatcmp): exact-zero sparsity guard: a resting value of exactly 0 contributes nothing
			continue
		}
		// Inlined colEntries: a closure here would allocate once per
		// nonbasic variable on the pivot path.
		if v >= ws.n {
			resid[v-ws.n] -= x
		} else {
			rows, coefs := ws.colRows[v], ws.colCoefs[v]
			for k, r := range rows {
				resid[r] -= coefs[k] * x
			}
		}
	}
	// xB = binv0·resid over the entries fac.mask says may be nonzero (the
	// same sums as the dense pass: only exact-zero terms are skipped).
	xB := ws.xB
	words := ws.fac.words
	for i := 0; i < m; i++ {
		row := ws.binv0[i*m : i*m+m]
		sum := 0.0
		for w, word := range ws.fac.mask[i*words : (i+1)*words] {
			for ; word != 0; word &= word - 1 {
				k := w*64 + bits.TrailingZeros64(word)
				sum += row[k] * resid[k]
			}
		}
		xB[i] = sum
	}
	ws.ftranEtas(xB)
}

// infeasibility returns the total bound violation of the basic variables.
func (s *simplex) infeasibility() float64 {
	ws := s.ws
	t := 0.0
	for i, v := range ws.basic {
		if ws.xB[i] < ws.lo[v]-feasTol {
			t += ws.lo[v] - ws.xB[i]
		} else if ws.xB[i] > ws.up[v]+feasTol {
			t += ws.xB[i] - ws.up[v]
		}
	}
	return t
}

// run executes phase 1 (if needed) and phase 2, returning the final status.
func (s *simplex) run(maxIters int) Status {
	// Phase 1: drive out infeasibility.
	for s.infeasibility() > feasTol {
		if s.iters >= maxIters {
			return IterLimit
		}
		progressed, unbounded := s.pivotOnce(true)
		if unbounded {
			// Unbounded phase-1 direction cannot happen with bounded
			// logicals; treat as numerical trouble.
			return Infeasible
		}
		if !progressed {
			if s.infeasibility() > feasTol {
				return Infeasible
			}
			break
		}
	}
	// Phase 2: optimize the real objective. The phase-1 candidate list was
	// priced against a different cost vector; drop it so the first phase-2
	// pricing refreshes against the real objective.
	s.ws.cands = s.ws.cands[:0]
	s.nonImprove = 0
	for {
		if s.iters >= maxIters {
			return IterLimit
		}
		progressed, unbounded := s.pivotOnce(false)
		if unbounded {
			return Unbounded
		}
		if !progressed {
			return Optimal
		}
	}
}

// basicCosts fills the shared scratch z with the working cost of each basic
// row for the current phase. Phase 1 maximizes the negative infeasibility,
// whose gradient is +1 for a basic below its lower bound and −1 above its
// upper — nonzero only on out-of-bounds basic rows, so the phase-1 cost is
// built sparsely from the basic rows alone, never materializing a cost per
// variable. (Nonbasic variables always have zero phase-1 cost: resting on a
// bound, they cannot be infeasible.)
func (s *simplex) basicCosts(phase1 bool) []float64 {
	ws := s.ws
	z := ws.z
	for i, v := range ws.basic {
		if phase1 {
			switch {
			case ws.xB[i] < ws.lo[v]-feasTol:
				z[i] = 1
			case ws.xB[i] > ws.up[v]+feasTol:
				z[i] = -1
			default:
				z[i] = 0
			}
		} else {
			z[i] = ws.obj[v]
		}
	}
	return z
}

// reducedCost returns d_v = c_v − y·A_v under the current phase cost
// (phase-1 cost of any nonbasic variable is zero).
func (s *simplex) reducedCost(phase1 bool, y []float64, v int) float64 {
	d := 0.0
	if !phase1 {
		d = s.ws.obj[v]
	}
	if v >= s.n {
		return d - y[v-s.n]
	}
	rows, coefs := s.ws.colRows[v], s.ws.colCoefs[v]
	for k, r := range rows {
		d -= y[r] * coefs[k]
	}
	return d
}

// eligible converts a reduced cost into an entering (score, direction);
// dir 0 means the variable cannot improve the phase objective. A variable
// resting at −∞ lower (free) may move either way; a fixed one cannot move,
// whatever its reduced cost says.
func (s *simplex) eligible(v int, d float64) (score, dir float64) {
	if s.ws.lo[v] == s.ws.up[v] { //janus:allow(floatcmp): a fixed variable has identical bounds by construction
		return 0, 0
	}
	switch s.ws.status[v] {
	case atLower:
		if d > costTol {
			return d, 1
		}
		if math.IsInf(s.ws.lo[v], -1) && d < -costTol {
			return -d, -1
		}
	case atUpper:
		if d < -costTol {
			return -d, -1
		}
	}
	return 0, 0
}

// price selects the entering variable. Normal mode re-prices the bounded
// candidate list (compacting out columns that became basic or unattractive)
// and, on exhaustion, falls back to a full Dantzig scan that also refills
// the list. Bland mode scans every column for the lowest-index eligible
// one, preserving the anti-cycling termination guarantee.
func (s *simplex) price(phase1, bland bool, y []float64) (enter int, dir, bestScore float64) {
	if bland {
		return s.priceBland(phase1, y)
	}
	if enter, dir, score := s.priceCandidates(phase1, y); enter >= 0 {
		return enter, dir, score
	}
	s.ws.pricingSwitches++
	return s.priceFullScan(phase1, y)
}

// priceCandidates prices only the candidate list with current reduced
// costs, returning the best eligible column or enter = −1 on exhaustion.
func (s *simplex) priceCandidates(phase1 bool, y []float64) (int, float64, float64) {
	ws := s.ws
	enter, dir, best := -1, 0.0, costTol
	kept := 0
	for _, cv := range ws.cands {
		v := int(cv)
		if ws.status[v] == inBasis {
			continue // entered the basis since the last refresh
		}
		d := s.reducedCost(phase1, y, v)
		score, dv := s.eligible(v, d)
		if dv == 0 { //janus:allow(floatcmp): dir is assigned only the exact literals 0/+1/-1
			continue // no longer attractive: drop from the list
		}
		ws.cands[kept] = cv
		kept++
		if score > best {
			best, enter, dir = score, v, dv
		}
	}
	ws.cands = ws.cands[:kept]
	return enter, dir, best
}

// priceFullScan performs a full Dantzig pricing pass, returning the global
// best column and refilling the candidate list with the highest-scoring
// eligible columns seen (bounded, replace-min on overflow).
func (s *simplex) priceFullScan(phase1 bool, y []float64) (int, float64, float64) {
	ws := s.ws
	ws.cands = ws.cands[:0]
	ws.candScore = ws.candScore[:0]
	limit := candListCap(s.n + s.m)
	enter, dir, best := -1, 0.0, costTol
	for v := 0; v < s.n+s.m; v++ {
		if ws.status[v] == inBasis {
			continue
		}
		d := s.reducedCost(phase1, y, v)
		score, dv := s.eligible(v, d)
		if dv == 0 { //janus:allow(floatcmp): dir is assigned only the exact literals 0/+1/-1
			continue
		}
		if score > best {
			best, enter, dir = score, v, dv
		}
		if len(ws.cands) < limit {
			ws.cands = append(ws.cands, int32(v))      //janus:allow(hotalloc): candidate buffers keep their capacity across pivots, bounded by the pricing limit
			ws.candScore = append(ws.candScore, score) //janus:allow(hotalloc): candidate buffers keep their capacity across pivots, bounded by the pricing limit
			continue
		}
		mi := 0
		for k := 1; k < limit; k++ {
			if ws.candScore[k] < ws.candScore[mi] {
				mi = k
			}
		}
		if score > ws.candScore[mi] {
			ws.cands[mi], ws.candScore[mi] = int32(v), score
		}
	}
	return enter, dir, best
}

// priceBland returns the lowest-index eligible column (Bland's rule).
func (s *simplex) priceBland(phase1 bool, y []float64) (int, float64, float64) {
	for v := 0; v < s.n+s.m; v++ {
		if s.ws.status[v] == inBasis {
			continue
		}
		d := s.reducedCost(phase1, y, v)
		score, dv := s.eligible(v, d)
		if dv != 0 { //janus:allow(floatcmp): dir is assigned only the exact literals 0/+1/-1
			return v, dv, score
		}
	}
	return -1, 0, 0
}

// pivotOnce performs one simplex iteration. It returns progressed=false
// when no improving entering variable exists (optimality for the phase),
// and unbounded=true when the entering direction is unbounded.
//
//janus:hotpath
func (s *simplex) pivotOnce(phase1 bool) (progressed, unbounded bool) {
	ws := s.ws
	m := s.m

	// BTRAN: y = c_B · B⁻¹, with the phase cost built from basic rows only.
	y := ws.btran(s.basicCosts(phase1))

	bland := s.nonImprove >= blandAfter
	enter, dir, bestScore := s.price(phase1, bland, y)
	if enter < 0 {
		return false, false
	}

	// FTRAN: w = B⁻¹ A_enter through binv0 and the eta chain.
	w := ws.ftranColumn(enter)

	// Ratio test: entering moves by t ≥ 0 in direction dir; basic i changes
	// by −dir·w_i·t. In phase 1, a basic beyond a bound may travel back to
	// that bound (restoring feasibility) but not through it.
	tMax := ws.up[enter] - ws.lo[enter] // bound-to-bound flip distance
	if math.IsInf(tMax, 1) {
		tMax = Inf
	}
	leave, leaveTo := -1, int8(atLower)
	t := tMax
	for i := 0; i < m; i++ {
		delta := -dir * w[i]
		if math.Abs(delta) < pivotTol {
			continue
		}
		v := ws.basic[i]
		x := ws.xB[i]
		var limit float64
		var to int8
		if delta > 0 {
			// Basic increases toward its upper bound (or, if currently
			// below lower, toward the lower bound first). One already above
			// its upper bound never crosses a bound by increasing further:
			// it must not block, or it would leave the basis at a bound it
			// does not sit on, teleporting its value and silently corrupting
			// every other basic (found by FuzzLPSolve).
			switch {
			case x < ws.lo[v]-feasTol:
				limit, to = (ws.lo[v]-x)/delta, atLower
			case x > ws.up[v]+feasTol:
				continue
			case math.IsInf(ws.up[v], 1):
				continue
			default:
				limit, to = (ws.up[v]-x)/delta, atUpper
			}
		} else {
			switch {
			case x > ws.up[v]+feasTol:
				limit, to = (ws.up[v]-x)/delta, atUpper
			case x < ws.lo[v]-feasTol:
				continue
			case math.IsInf(ws.lo[v], -1):
				continue
			default:
				limit, to = (ws.lo[v]-x)/delta, atLower
			}
		}
		if limit < -feasTol {
			limit = 0
		}
		if limit < t {
			t, leave, leaveTo = limit, i, to
		}
	}

	if math.IsInf(t, 1) {
		return false, true // unbounded ray
	}
	if t < 0 {
		t = 0
	}

	// Apply the step.
	enterFrom := s.nonbasicValue(enter)
	newEnterVal := enterFrom + dir*t
	for i := 0; i < m; i++ {
		ws.xB[i] -= dir * w[i] * t
	}

	if leave < 0 {
		// Bound flip: entering moves across to its other bound; basis
		// unchanged.
		if dir > 0 {
			ws.status[enter] = atUpper
		} else {
			ws.status[enter] = atLower
		}
		s.iters++
		s.trackProgress(t, bestScore)
		return true, false
	}

	// Basis change: leave row `leave`, enter variable `enter`.
	leavingVar := ws.basic[leave]
	ws.status[leavingVar] = leaveTo
	ws.varRow[leavingVar] = -1
	ws.basic[leave] = enter
	ws.status[enter] = inBasis
	ws.varRow[enter] = int32(leave)
	ws.xB[leave] = newEnterVal

	piv := w[leave]
	if math.Abs(piv) < pivotTol {
		// Numerically bad pivot: refactorize from scratch rather than
		// appending a near-singular eta, and retry next iteration.
		if err := ws.refactorize(); err != nil {
			s.resetBasis()
			s.syncVarRow()
			_ = ws.refactorize()
		}
		s.computeBasics()
		s.iters++
		return true, false
	}

	// Append the pivot to the eta file — O(nnz(w)) instead of the dense
	// engine's O(m²) row elimination — and compact when the chain is long
	// or filled in.
	ws.appendEta(w, leave)
	s.iters++
	if ws.etaCount() >= etaLimit(m) || ws.etaNnz() > etaFillLimit(m) {
		if err := ws.refactorize(); err == nil {
			s.computeBasics()
		}
	}
	s.trackProgress(t, bestScore)
	return true, false
}

func (s *simplex) trackProgress(step, score float64) {
	improved := step*score > costTol*costTol
	if improved {
		s.nonImprove = 0
	} else {
		s.nonImprove++
	}
}

// objective evaluates the real objective at the current point.
func (s *simplex) objective() float64 {
	ws := s.ws
	total := 0.0
	for v := 0; v < s.n; v++ {
		if c := ws.obj[v]; c != 0 { //janus:allow(floatcmp): exact-zero sparsity guard: zero cost terms add nothing
			total += c * s.value(v)
		}
	}
	return total
}

func (s *simplex) value(v int) float64 {
	if r := s.ws.varRow[v]; r >= 0 {
		return s.ws.xB[r]
	}
	return s.nonbasicValue(v)
}

// extract builds the Solution. At Optimal the duals and reduced costs come
// from ws.y and ws.d, which priced says computeReducedCosts already left
// there for the final basis on the real costs.
func (s *simplex) extract(status Status, priced bool) *Solution {
	ws := s.ws
	sol := &Solution{ //janus:allow(hotalloc): solution extraction runs once per solve, after the pivot loop
		Status:           status,
		Iterations:       s.iters,
		Refactorizations: ws.refactorizations,
		PricingSwitches:  ws.pricingSwitches,
	}
	sol.X = make([]float64, s.n) //janus:allow(hotalloc): solution extraction runs once per solve, after the pivot loop
	for v := 0; v < s.n; v++ {
		sol.X[v] = s.value(v)
	}
	if status == Optimal {
		sol.Objective = s.objective()
		// Duals: y = c_B B⁻¹ with the real objective, via BTRAN.
		if !priced {
			s.computeReducedCosts()
		}
		sol.Duals = append([]float64(nil), ws.y...)              //janus:allow(hotalloc): solution extraction runs once per solve, after the pivot loop
		sol.ReducedCosts = append([]float64(nil), ws.d[:s.n]...) //janus:allow(hotalloc): solution extraction runs once per solve, after the pivot loop
	}
	sol.Basis = &Basis{ //janus:allow(hotalloc): solution extraction runs once per solve, after the pivot loop
		basic:  append([]int(nil), ws.basic...),   //janus:allow(hotalloc): solution extraction runs once per solve, after the pivot loop
		status: append([]int8(nil), ws.status...), //janus:allow(hotalloc): solution extraction runs once per solve, after the pivot loop
		n:      s.n + s.m,
		m:      s.m,
	}
	return sol
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
