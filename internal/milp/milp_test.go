package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"janus/internal/lp"
)

const tol = 1e-5

func approx(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(b)) }

func TestBinaryKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 8 (0/1 vars).
	// Optimum: a + c = 14 (weight 8) beats b + c = 10 and a alone = 10.
	p := lp.NewProblem()
	a := p.AddBinary(10)
	b := p.AddBinary(6)
	c := p.AddBinary(4)
	mustRow(t, p, lp.LE, 8, []lp.Term{{Var: a, Coef: 5}, {Var: b, Coef: 4}, {Var: c, Coef: 3}})
	sol, err := NewSolver(p, []int{a, b, c}).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 14) {
		t.Errorf("objective = %v, want 14", sol.Objective)
	}
	if !approx(sol.X[a], 1) || !approx(sol.X[b], 0) || !approx(sol.X[c], 1) {
		t.Errorf("X = %v, want a=c=1, b=0", sol.X)
	}
}

func TestIntegralityGapVsLP(t *testing.T) {
	// LP relaxation of the knapsack above is > integer optimum; check the
	// solver proves the integer optimum, not the relaxation.
	p := lp.NewProblem()
	a := p.AddBinary(10)
	b := p.AddBinary(6)
	c := p.AddBinary(4)
	mustRow(t, p, lp.LE, 8, []lp.Term{{Var: a, Coef: 5}, {Var: b, Coef: 4}, {Var: c, Coef: 3}})
	rel, err := p.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Objective <= 14+tol {
		t.Skipf("relaxation unexpectedly tight: %v", rel.Objective)
	}
	sol, err := NewSolver(p, []int{a, b, c}).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 14) {
		t.Errorf("objective = %v, want 14", sol.Objective)
	}
	if sol.Bound > rel.Objective+tol {
		t.Errorf("bound %v exceeds root relaxation %v", sol.Bound, rel.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(1)
	b := p.AddBinary(1)
	mustRow(t, p, lp.GE, 3, []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}})
	sol, err := NewSolver(p, []int{a, b}).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestEqualityMILP(t *testing.T) {
	// Exactly 2 of 4 binaries, maximize weighted sum.
	p := lp.NewProblem()
	vars := []int{p.AddBinary(5), p.AddBinary(3), p.AddBinary(8), p.AddBinary(1)}
	terms := make([]lp.Term, len(vars))
	for i, v := range vars {
		terms[i] = lp.Term{Var: v, Coef: 1}
	}
	mustRow(t, p, lp.EQ, 2, terms)
	sol, err := NewSolver(p, vars).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 13) {
		t.Errorf("objective = %v, want 13 (vars 0 and 2)", sol.Objective)
	}
	if !approx(sol.X[vars[0]], 1) || !approx(sol.X[vars[2]], 1) {
		t.Errorf("X = %v", sol.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 4y + x s.t. x <= 3.7, y binary, x + 2y <= 4 → y=1, x=2: obj 6.
	p := lp.NewProblem()
	y := p.AddBinary(4)
	x := p.AddVariable(0, 3.7, 1)
	mustRow(t, p, lp.LE, 4, []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}})
	sol, err := NewSolver(p, []int{y}).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 6) || !approx(sol.X[y], 1) || !approx(sol.X[x], 2) {
		t.Errorf("obj=%v X=%v, want 6, y=1, x=2", sol.Objective, sol.X)
	}
}

func TestBoundsRestoredAfterSolve(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(1)
	b := p.AddBinary(2)
	mustRow(t, p, lp.LE, 1, []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}})
	if _, err := NewSolver(p, []int{a, b}).Solve(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{a, b} {
		lo, up := p.Bounds(v)
		if lo != 0 || up != 1 {
			t.Errorf("bounds of %d = [%v,%v], want [0,1]", v, lo, up)
		}
	}
}

func TestRootDualsExposed(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(3)
	b := p.AddBinary(2)
	r := mustRow(t, p, lp.LE, 1, []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}})
	sol, err := NewSolver(p, []int{a, b}).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.RootDuals) <= r {
		t.Fatal("root duals missing")
	}
	// The packing row is binding at the root with shadow price ≈ 2 (the
	// second-best rate).
	if sol.RootDuals[r] < 1 {
		t.Errorf("dual = %v, want ≥ 1", sol.RootDuals[r])
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := lp.NewProblem()
	n := 30
	vars := make([]int, n)
	terms := make([]lp.Term, n)
	for i := range vars {
		vars[i] = p.AddBinary(1 + rng.Float64())
		terms[i] = lp.Term{Var: vars[i], Coef: 1 + rng.Float64()*3}
	}
	mustRow(t, p, lp.LE, 7, terms)
	sol, err := NewSolver(p, vars).Solve(context.Background(), Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes > 3 {
		t.Errorf("explored %d nodes, limit 3", sol.Nodes)
	}
	if sol.Status == Optimal && sol.Bound < sol.Objective-tol {
		t.Errorf("inconsistent: optimal but bound %v < obj %v", sol.Bound, sol.Objective)
	}
}

func TestTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := lp.NewProblem()
	n := 40
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddBinary(1 + rng.Float64())
	}
	for r := 0; r < 15; r++ {
		terms := make([]lp.Term, 0, 10)
		for j := 0; j < 10; j++ {
			terms = append(terms, lp.Term{Var: vars[rng.Intn(n)], Coef: 1 + rng.Float64()})
		}
		mustRow(t, p, lp.LE, 3, terms)
	}
	start := time.Now()
	if _, err := NewSolver(p, vars).Solve(context.Background(), Options{TimeLimit: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("time limit ignored: took %v", took)
	}
}

// Exhaustive cross-check: random small 0/1 programs vs brute force.
func TestBruteForceCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(7) + 2 // 2..8 binaries
		m := rng.Intn(4) + 1
		p := lp.NewProblem()
		obj := make([]float64, n)
		vars := make([]int, n)
		for i := 0; i < n; i++ {
			obj[i] = math.Round(rng.NormFloat64()*5*100) / 100
			vars[i] = p.AddBinary(obj[i])
		}
		type rowSpec struct {
			coefs []float64
			rhs   float64
		}
		specs := make([]rowSpec, 0, m)
		for r := 0; r < m; r++ {
			coefs := make([]float64, n)
			terms := make([]lp.Term, 0, n)
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.6 {
					coefs[i] = float64(rng.Intn(5) + 1)
					terms = append(terms, lp.Term{Var: vars[i], Coef: coefs[i]})
				}
			}
			if len(terms) == 0 {
				continue
			}
			rhs := float64(rng.Intn(8) + 1)
			specs = append(specs, rowSpec{coefs, rhs})
			mustRow(t, p, lp.LE, rhs, terms)
		}

		// Brute force over 2^n assignments.
		best := math.Inf(-1)
		for mask := 0; mask < 1<<n; mask++ {
			feasible := true
			for _, spec := range specs {
				lhs := 0.0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						lhs += spec.coefs[i]
					}
				}
				if lhs > spec.rhs+1e-9 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			val := 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					val += obj[i]
				}
			}
			if val > best {
				best = val
			}
		}

		sol, err := NewSolver(p, vars).Solve(context.Background(), Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v (all-zero is feasible)", trial, sol.Status)
		}
		if !approx(sol.Objective, best) {
			t.Fatalf("trial %d: milp %v != brute force %v", trial, sol.Objective, best)
		}
	}
}

func TestWarmStartFromRootBasis(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(3)
	b := p.AddBinary(2)
	c := p.AddBinary(1)
	mustRow(t, p, lp.LE, 2, []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}, {Var: c, Coef: 1}})
	first, err := NewSolver(p, []int{a, b, c}).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewSolver(p, []int{a, b, c}).Solve(context.Background(), Options{WarmStart: first.RootBasis})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(first.Objective, second.Objective) {
		t.Errorf("warm restart changed objective: %v vs %v", first.Objective, second.Objective)
	}
}

func mustRow(t *testing.T, p *lp.Problem, s lp.Sense, rhs float64, terms []lp.Term) int {
	t.Helper()
	r, err := p.AddConstraint(s, rhs, terms)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMIPStartSeedsIncumbent(t *testing.T) {
	// A knapsack where the optimum is known; pass it as the MIP start and
	// solve with MaxNodes=0-ish to confirm the incumbent is used.
	p := lp.NewProblem()
	a := p.AddBinary(10)
	b := p.AddBinary(6)
	c := p.AddBinary(4)
	mustRow(t, p, lp.LE, 8, []lp.Term{{Var: a, Coef: 5}, {Var: b, Coef: 4}, {Var: c, Coef: 3}})
	start := map[int]float64{a: 1, b: 0, c: 1} // the optimum (14)
	sol, err := NewSolver(p, []int{a, b, c}).Solve(context.Background(), Options{MaxNodes: 1, MIPStart: start})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X == nil {
		t.Fatal("MIP start should provide an incumbent even at MaxNodes=1")
	}
	if !approx(sol.Objective, 14) {
		t.Errorf("objective = %v, want 14 from the MIP start", sol.Objective)
	}
}

func TestInfeasibleMIPStartIgnored(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(3)
	b := p.AddBinary(2)
	mustRow(t, p, lp.LE, 1, []lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}})
	// a=b=1 violates the row; the solver must ignore it and still find the
	// optimum a=1.
	sol, err := NewSolver(p, []int{a, b}).Solve(context.Background(), Options{MIPStart: map[int]float64{a: 1, b: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 3) {
		t.Errorf("status=%v obj=%v, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestBranchPriorityRespected(t *testing.T) {
	// Construct a problem where both a "group" variable g and "detail"
	// variables d1,d2 go fractional at the root; with priority on g the
	// solver must still find the optimum.
	p := lp.NewProblem()
	g := p.AddBinary(5)
	d1 := p.AddBinary(1)
	d2 := p.AddBinary(1)
	mustRow(t, p, lp.LE, 1, []lp.Term{{Var: g, Coef: 0.7}, {Var: d1, Coef: 0.5}, {Var: d2, Coef: 0.5}})
	prio := map[int]int{g: 1}
	sol, err := NewSolver(p, []int{g, d1, d2}).Solve(context.Background(), Options{BranchPriority: prio})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Optimum: g=1 (5) beats d1+d2 (2).
	if !approx(sol.Objective, 5) {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
}

func TestBranchPriorityMatchesNoPriority(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := lp.NewProblem()
	n := 12
	vars := make([]int, n)
	prio := map[int]int{}
	for i := range vars {
		vars[i] = p.AddBinary(1 + rng.Float64()*3)
		prio[vars[i]] = i % 3
	}
	for r := 0; r < 5; r++ {
		terms := make([]lp.Term, 0, 5)
		for j := 0; j < 5; j++ {
			terms = append(terms, lp.Term{Var: vars[rng.Intn(n)], Coef: 1 + rng.Float64()})
		}
		mustRow(t, p, lp.LE, 3, terms)
	}
	plain, err := NewSolver(p, vars).Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prioritized, err := NewSolver(p, vars).Solve(context.Background(), Options{BranchPriority: prio})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Status != Optimal || prioritized.Status != Optimal {
		t.Fatalf("statuses %v %v", plain.Status, prioritized.Status)
	}
	if !approx(plain.Objective, prioritized.Objective) {
		t.Errorf("priority changed the optimum: %v vs %v", plain.Objective, prioritized.Objective)
	}
}
