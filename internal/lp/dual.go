package lp

import "math"

// The dual simplex re-solves a warm basis that is dual feasible but not
// primal feasible. That is exactly a branch-and-bound child: its parent's
// optimal basis prices every nonbasic correctly and violates only the bound
// the branch just tightened, so instead of restarting phase 1 the dual
// keeps optimality of the reduced costs and repairs primal feasibility, a
// basic row at a time, on the factorization the parent left behind.

const (
	// harrisTol is the reduced-cost slack the Harris ratio test may spend to
	// prefer a larger pivot among near-ties. It is half of costTol, so the
	// optimality check on the dual's end point never rejects it for that.
	harrisTol = costTol / 2
	// dualStallLimit hands a dual run that made this many pivots in a row
	// without raising the dual objective to the primal, whose Bland
	// fallback guarantees termination.
	dualStallLimit = 50
	// dualPivotAgree is the relative disagreement allowed between the pivot
	// element as the row computed it (ρ·A_q) and as the column did
	// ((B⁻¹A_q)_r); beyond it the factorization has drifted and the dual
	// hands over.
	dualPivotAgree = 1e-6
)

// dualEnd records how the last Solve's dual simplex run ended.
type dualEnd int8

const (
	// dualSkipped: the solve never entered the dual (a cold start, or a warm
	// basis that was primal feasible or not dual feasible).
	dualSkipped dualEnd = iota
	// dualReachedFeasible: the dual reached a primal-feasible basis. It is
	// optimal if it also prices optimally on the real costs; otherwise the
	// primal improves on it.
	dualReachedFeasible
	// dualProvedInfeasible: a violated row no nonbasic can repair.
	dualProvedInfeasible
	// dualHandedOver: the dual stalled, met a bad pivot or reached the
	// iteration limit and left its current basis to the primal.
	dualHandedOver
)

// computeReducedCosts fills ws.d with d_v = c_v − y·A_v for every nonbasic
// v (zero for basics) under the working costs ws.obj, leaving y in ws.y.
func (s *simplex) computeReducedCosts() {
	ws := s.ws
	y := ws.btran(s.basicCosts(false))
	for v := 0; v < s.n+s.m; v++ {
		if ws.status[v] == inBasis {
			ws.d[v] = 0
			continue
		}
		ws.d[v] = s.reducedCost(false, y, v)
	}
}

// dualFeasible computes the reduced costs and reports whether every
// nonbasic rests on the bound its reduced cost favours, within costTol: a
// maximization basis is dual feasible when no nonbasic could improve the
// objective by leaving its bound. Fixed variables are dual feasible at any
// reduced cost; a free one needs a zero reduced cost.
func (s *simplex) dualFeasible() bool {
	s.computeReducedCosts()
	ws := s.ws
	for v := 0; v < s.n+s.m; v++ {
		if ws.status[v] == inBasis || ws.lo[v] == ws.up[v] { //janus:allow(floatcmp): a fixed variable has identical bounds by construction
			continue
		}
		d := ws.d[v]
		switch {
		case ws.status[v] == atUpper:
			if d < -costTol {
				return false
			}
		case math.IsInf(ws.lo[v], -1):
			if math.Abs(d) > costTol {
				return false
			}
		case d > costTol:
			return false
		}
	}
	return true
}

// dual runs dual simplex iterations from a dual-feasible basis until no
// basic violates a bound, a violated row proves the problem infeasible, or
// the run stalls, meets a bad pivot or reaches maxIters. Only the
// infeasibility proof is final; every other ending leaves the current
// basis, with consistent xB, to the primal. Cost shifts the ratio test
// made (dualPivot) are undone before it returns.
//
//janus:hotpath
func (s *simplex) dual(maxIters int) dualEnd {
	ws := s.ws
	for i := range ws.dw {
		ws.dw[i] = 1
	}
	end := dualHandedOver
	stall := 0
	for s.iters < maxIters {
		r, toLower, viol := s.dualLeaving()
		if r < 0 {
			end = dualReachedFeasible
			break
		}
		enter := s.dualEnter(r, toLower)
		if enter < 0 {
			end = dualProvedInfeasible
			break
		}
		theta, ok := s.dualPivot(r, toLower, enter)
		if !ok {
			break
		}
		// The dual objective rose by |θ|·viol; Harris and the cost shift keep
		// it from falling.
		if math.Abs(theta)*viol > costTol*feasTol {
			stall = 0
		} else if stall++; stall >= dualStallLimit {
			break
		}
	}
	copy(ws.obj[:s.n], s.p.obj)
	for v := s.n; v < s.n+s.m; v++ {
		ws.obj[v] = 0
	}
	return end
}

// dualLeaving picks the leaving row: of the basics beyond a bound by more
// than feasTol, the one with the largest squared violation over its dual
// Devex weight ws.dw, lowest row on ties. It returns r = −1 when there is
// none, and otherwise whether the basic leaves to its lower bound (it is
// below it) and by how much it violates it.
func (s *simplex) dualLeaving() (r int, toLower bool, viol float64) {
	ws := s.ws
	r = -1
	best := 0.0
	for i, v := range ws.basic {
		x := ws.xB[i]
		low := true
		d := ws.lo[v] - x
		if d <= feasTol {
			low, d = false, x-ws.up[v]
			if d <= feasTol {
				continue
			}
		}
		if sc := d * d / ws.dw[i]; sc > best {
			r, toLower, viol, best = i, low, d, sc
		}
	}
	return r, toLower, viol
}

// dualRatio classifies nonbasic v for the dual ratio test on a row whose
// pivot-row entry, signed so that a negative value moves the leaving basic
// toward its violated bound when v increases, is a. It reports whether v
// may enter and how far its reduced cost is from changing sign: negative
// when the Harris test already let it cross, by at most harrisTol. A
// variable at its lower bound may only increase, one at its upper only
// decrease; a free one may move either way and has no slack to give; a
// fixed one never enters.
func (s *simplex) dualRatio(v int, a float64) (slack float64, ok bool) {
	ws := s.ws
	if math.Abs(a) <= pivotTol || ws.lo[v] == ws.up[v] { //janus:allow(floatcmp): a fixed variable has identical bounds by construction
		return 0, false
	}
	d := ws.d[v]
	switch {
	case ws.status[v] == atUpper:
		return d, a > 0
	case math.IsInf(ws.lo[v], -1):
		return -math.Abs(d), true
	default:
		return -d, a < 0
	}
}

// dualEnter prices leaving row r: ρ = e_r·B⁻¹ by BTRAN, the pivot row
// α_v = ρ·A_v over the nonbasic CSC columns into ws.alpha (a logical's
// entry is ρ_i), and a two-pass Harris ratio test. It returns the entering
// variable, or −1 when no nonbasic can move the leaving basic toward its
// violated bound: the row then proves the problem infeasible.
func (s *simplex) dualEnter(r int, toLower bool) int {
	ws := s.ws
	z := ws.z
	for i := range z {
		z[i] = 0
	}
	z[r] = 1
	rho := ws.btran(z)

	// sign makes the ratio test one case: below its lower bound, the leaving
	// basic must rise, which a nonbasic with α_v < 0 does by increasing.
	sign := 1.0
	if !toLower {
		sign = -1
	}
	// Pass 1: the largest dual step that turns no eligible reduced cost more
	// than harrisTol infeasible, collecting the eligible columns.
	alpha, elig := ws.alpha, ws.elig
	nElig := 0
	bound := math.Inf(1)
	for v := 0; v < s.n+s.m; v++ {
		if ws.status[v] == inBasis {
			continue
		}
		a := 0.0
		if v >= s.n {
			a = rho[v-s.n]
		} else {
			rows, coefs := ws.colRows[v], ws.colCoefs[v]
			for k, i := range rows {
				a += rho[i] * coefs[k]
			}
		}
		alpha[v] = a
		if math.Abs(a) <= pivotTol {
			continue // most of the row: ρ is sparse
		}
		slack, ok := s.dualRatio(v, sign*a)
		if !ok {
			continue
		}
		elig[nElig] = int32(v)
		nElig++
		if t := (slack + harrisTol) / math.Abs(a); t < bound {
			bound = math.Max(t, 0)
		}
	}
	// Pass 2: among the columns whose own ratio fits that step, the largest
	// pivot, lowest index on ties.
	enter, best := -1, 0.0
	for _, ev := range elig[:nElig] {
		v := int(ev)
		slack, _ := s.dualRatio(v, sign*alpha[v])
		if a := math.Abs(alpha[v]); slack/a <= bound && a > best {
			enter, best = v, a
		}
	}
	return enter
}

// dualPivot brings enter into the basis on row r, whose basic leaves to
// the bound it violates, through the primal's FTRAN, eta append and
// refactorization triggers. It returns the dual step θ, or ok = false —
// with the basis untouched — when the pivot is too small or the row and
// column disagree on it.
func (s *simplex) dualPivot(r int, toLower bool, enter int) (theta float64, ok bool) {
	ws := s.ws
	m := s.m
	w := ws.ftranColumn(enter)
	piv := w[r]
	if math.Abs(piv) < pivotTol || math.Abs(piv-ws.alpha[enter]) > dualPivotAgree*math.Max(1, math.Abs(piv)) {
		return 0, false
	}

	// Primal step: the entering variable moves until the leaving basic sits
	// on its violated bound.
	leavingVar := ws.basic[r]
	target, leaveTo, sign := ws.lo[leavingVar], atLower, 1.0
	if !toLower {
		target, leaveTo, sign = ws.up[leavingVar], atUpper, -1
	}
	t := (ws.xB[r] - target) / piv
	newEnterVal := s.nonbasicValue(enter) + t
	for i := 0; i < m; i++ {
		ws.xB[i] -= w[i] * t
	}

	// Dual step: y moves by θ·ρ, so every nonbasic reduced cost moves by
	// −θ·α_v, the entering one to zero, and the leaving basic (α = 1) takes
	// −θ, which has the sign its new bound needs. An entering reduced cost
	// the Harris test let cross zero would give θ the wrong sign and lower
	// the dual objective; its cost is shifted to make it exactly zero
	// instead, until dual restores the real costs.
	if slack, _ := s.dualRatio(enter, sign*ws.alpha[enter]); slack < 0 {
		ws.obj[enter] -= ws.d[enter]
		ws.d[enter] = 0
	}
	theta = ws.d[enter] / ws.alpha[enter]
	for v := 0; v < s.n+s.m; v++ {
		if ws.status[v] != inBasis {
			ws.d[v] -= theta * ws.alpha[v]
		}
	}
	ws.d[enter] = 0
	ws.d[leavingVar] = -theta

	ws.status[leavingVar] = leaveTo
	ws.varRow[leavingVar] = -1
	ws.basic[r] = enter
	ws.status[enter] = inBasis
	ws.varRow[enter] = int32(r)
	ws.xB[r] = newEnterVal

	// Dual Devex: row r's weight passes to the entering variable scaled by
	// 1/piv², and every other row's grows to cover (w_i/piv)² of it.
	for i, wi := range w {
		if i != r {
			if g := wi / piv * wi / piv * ws.dw[r]; g > ws.dw[i] {
				ws.dw[i] = g
			}
		}
	}
	ws.dw[r] = math.Max(ws.dw[r]/(piv*piv), 1)

	ws.appendEta(w, r)
	s.iters++
	if ws.etaCount() >= etaLimit(m) || ws.etaNnz() > etaFillLimit(m) {
		if err := ws.refactorize(); err == nil {
			s.computeBasics()
			s.computeReducedCosts()
		}
	}
	return theta, true
}
