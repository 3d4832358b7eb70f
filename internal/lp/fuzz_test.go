package lp

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzEps is the tolerance for the optimality certificates below. The
// simplex works in float64 with Bland fallbacks; 1e-6 absolute-relative is
// the contract the MILP layer builds on.
const fuzzEps = 1e-6

// buildFuzzLP derives a random bounded LP deterministically from the fuzz
// inputs: all bounds finite so the dual objective is always well defined,
// senses mixed, right-hand sides sometimes generous and sometimes
// conflicting so every status is reachable.
func buildFuzzLP(seed int64, nv, nr uint8) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	n := 1 + int(nv)%9 // 1..9 variables
	m := int(nr) % 7   // 0..6 rows
	for i := 0; i < n; i++ {
		lo := -3 + rng.Float64()*3 // [-3, 0]
		up := lo + 0.5 + rng.Float64()*4.5
		p.AddVariable(lo, up, rng.Float64()*10-5)
	}
	for r := 0; r < m; r++ {
		terms := make([]Term, 0, n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{Var: v, Coef: rng.Float64()*6 - 3})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: 1})
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := rng.Float64()*12 - 6
		if _, err := p.AddConstraint(sense, rhs, terms); err != nil {
			panic(err)
		}
	}
	return p
}

// TestFuzzSeedsExerciseSparsePaths pins the seed corpus additions above to
// the code paths they exist to cover: if a tuning change (eta limits,
// candidate-list size) stops them from reaching mid-solve refactorization
// or the candidate-exhaustion full-scan fallback, this fails and the seeds
// should be re-searched rather than silently degrading to ordinary
// corpus entries.
func TestFuzzSeedsExerciseSparsePaths(t *testing.T) {
	refac := buildFuzzLP(2230, 8, 6)
	sol, err := refac.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Refactorizations < 2 {
		t.Errorf("seed 2230: status %v, %d refactorizations; want optimal with >= 2 (initial + eta-limit)",
			sol.Status, sol.Refactorizations)
	}
	exhaust := buildFuzzLP(126, 8, 5)
	sol, err = exhaust.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every solve records >= 2 switches (initial fill + optimality proof);
	// >= 3 demonstrates a genuine mid-solve candidate-list exhaustion.
	if sol.Status != Optimal || sol.PricingSwitches < 3 {
		t.Errorf("seed 126: status %v, %d pricing switches; want optimal with >= 3 (mid-solve exhaustion)",
			sol.Status, sol.PricingSwitches)
	}
}

// FuzzLPSolve hammers the simplex with random bounded LPs and checks the
// full optimality certificate on every Optimal result:
//
//   - primal feasibility (bounds and rows within fuzzEps),
//   - the reported objective equals c·x,
//   - strong duality: the dual objective y·b + Σ_j max(d_j·lo_j, d_j·up_j)
//     (finite bounds, so the max picks the bound the sign of the reduced
//     cost pins x_j to) equals the primal objective,
//   - complementary slackness: a nonzero row dual means the row is tight,
//     and a nonzero reduced cost means the variable sits on a bound.
//
// Any panic, or any certificate violation, is a solver bug.
func FuzzLPSolve(f *testing.F) {
	// Seed corpus: regression shapes that exercised distinct code paths —
	// empty constraint set (pure bound optimization), single variable,
	// equality-heavy systems (phase-1 artificials), the densest size, and
	// seeds that historically hit degenerate pivots in development.
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(2), uint8(0), uint8(0)) // 1 var, no rows
	f.Add(int64(7), uint8(8), uint8(6)) // densest shape
	// Regression: this instance exposed a ratio-test bug where a basic
	// variable already beyond a bound was allowed to block with a clamped
	// zero step and left the basis at a bound it did not sit on, corrupting
	// xB and yielding an "optimal" point violating three rows.
	f.Add(int64(11), uint8(4), uint8(3))
	f.Add(int64(23), uint8(1), uint8(5)) // more rows than vars: likely infeasible
	f.Add(int64(42), uint8(5), uint8(1)) // single wide row
	f.Add(int64(6241), uint8(6), uint8(4))
	f.Add(int64(-9000), uint8(2), uint8(6))
	// Sparse-engine path coverage (see TestFuzzSeedsExerciseSparsePaths):
	// enough basis-change pivots to hit the eta-file limit repeatedly (≥2
	// mid-solve refactorizations) and to exhaust the pricing candidate
	// list mid-solve (full-scan fallback refreshes).
	f.Add(int64(2230), uint8(8), uint8(6))
	f.Add(int64(126), uint8(8), uint8(5))

	f.Fuzz(func(t *testing.T, seed int64, nv, nr uint8) {
		p := buildFuzzLP(seed, nv, nr)
		sol, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("Solve returned error on a well-formed LP: %v", err)
		}
		// Whatever basis the solve ended on, its factorization must agree
		// with the dense Gauss-Jordan oracle.
		checkRefactorize(t, p.ws)
		if sol.Status != Optimal {
			return // infeasible/unbounded/iter-limit are legitimate outcomes
		}
		n := p.NumVariables()
		if len(sol.X) != n {
			t.Fatalf("X has %d entries for %d variables", len(sol.X), n)
		}

		// Primal feasibility.
		for v := 0; v < n; v++ {
			lo, up := p.Bounds(v)
			if sol.X[v] < lo-fuzzEps || sol.X[v] > up+fuzzEps {
				t.Fatalf("x[%d]=%g outside [%g,%g]", v, sol.X[v], lo, up)
			}
		}
		for i := 0; i < p.NumConstraints(); i++ {
			sense, rhs, terms := p.Constraint(i)
			lhs := 0.0
			for _, tm := range terms {
				lhs += tm.Coef * sol.X[tm.Var]
			}
			switch sense {
			case LE:
				if lhs > rhs+fuzzEps {
					t.Fatalf("row %d: %g > %g (LE)", i, lhs, rhs)
				}
			case GE:
				if lhs < rhs-fuzzEps {
					t.Fatalf("row %d: %g < %g (GE)", i, lhs, rhs)
				}
			case EQ:
				if math.Abs(lhs-rhs) > fuzzEps {
					t.Fatalf("row %d: %g != %g (EQ)", i, lhs, rhs)
				}
			}
		}

		// Objective consistency.
		obj := 0.0
		for v := 0; v < n; v++ {
			obj += p.ObjectiveCoef(v) * sol.X[v]
		}
		scale := math.Max(1, math.Abs(obj))
		if math.Abs(obj-sol.Objective) > fuzzEps*scale {
			t.Fatalf("objective %g != recomputed %g", sol.Objective, obj)
		}

		if len(sol.Duals) != p.NumConstraints() || len(sol.ReducedCosts) != n {
			t.Fatalf("certificate sizes: %d duals for %d rows, %d reduced costs for %d vars",
				len(sol.Duals), p.NumConstraints(), len(sol.ReducedCosts), n)
		}

		// Strong duality. With every bound finite the dual objective is
		// D = y·b + Σ_j max(d_j·lo_j, d_j·up_j); at an optimal basis it
		// must meet the primal objective.
		dual := 0.0
		for i := 0; i < p.NumConstraints(); i++ {
			_, rhs, _ := p.Constraint(i)
			dual += sol.Duals[i] * rhs
		}
		for v := 0; v < n; v++ {
			lo, up := p.Bounds(v)
			d := sol.ReducedCosts[v]
			dual += math.Max(d*lo, d*up)
		}
		if math.Abs(dual-sol.Objective) > fuzzEps*math.Max(1, math.Abs(sol.Objective)) {
			t.Fatalf("strong duality violated: dual %g vs primal %g (gap %g)",
				dual, sol.Objective, dual-sol.Objective)
		}

		// Complementary slackness.
		for i := 0; i < p.NumConstraints(); i++ {
			if math.Abs(sol.Duals[i]) <= fuzzEps {
				continue
			}
			_, rhs, terms := p.Constraint(i)
			lhs := 0.0
			for _, tm := range terms {
				lhs += tm.Coef * sol.X[tm.Var]
			}
			if math.Abs(lhs-rhs) > fuzzEps*math.Max(1, math.Abs(rhs)) {
				t.Fatalf("row %d has dual %g but slack %g", i, sol.Duals[i], lhs-rhs)
			}
		}
		for v := 0; v < n; v++ {
			if math.Abs(sol.ReducedCosts[v]) <= fuzzEps {
				continue
			}
			lo, up := p.Bounds(v)
			atLo := math.Abs(sol.X[v]-lo) <= fuzzEps
			atUp := math.Abs(sol.X[v]-up) <= fuzzEps
			if !atLo && !atUp {
				t.Fatalf("x[%d]=%g interior with reduced cost %g (bounds [%g,%g])",
					v, sol.X[v], sol.ReducedCosts[v], lo, up)
			}
		}
	})
}
