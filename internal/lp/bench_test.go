package lp

import (
	"math/rand"
	"strings"
	"testing"
)

// buildBenchLP constructs the packing LP used by the solver microbenchmarks:
// n variables, m dense-ish coverage rows, every bound finite — the shape of
// a Janus configuration relaxation (TestRandomPackingStress uses the same
// family). Deterministic so cold and warm runs are comparable across
// engines.
func buildBenchLP(n, m int) *Problem {
	rng := rand.New(rand.NewSource(99))
	p := NewProblem()
	for i := 0; i < n; i++ {
		p.AddVariable(0, 1+rng.Float64()*3, rng.Float64()*10)
	}
	for r := 0; r < m; r++ {
		terms := make([]Term, 0, n/3)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.3 {
				terms = append(terms, Term{Var: v, Coef: 0.2 + rng.Float64()*2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: 1})
		}
		if _, err := p.AddConstraint(LE, 3+rng.Float64()*float64(n)/4, terms); err != nil {
			panic(err)
		}
	}
	return p
}

// BenchmarkLPSolve measures a cold solve from scratch each iteration: no
// warm basis, so every solve pays the initial factorization and both
// phases. The problem object is reused, so workspace reuse still applies —
// this is the "root relaxation" cost.
func BenchmarkLPSolve(b *testing.B) {
	p := buildBenchLP(150, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkLPWarmResolve measures the branch-and-bound node pattern: each
// iteration is one parent→child→parent excursion. The child fixes a
// variable that is basic at the parent optimum (invalidating the basis and
// forcing real pivots) and solves warm from the parent basis — because the
// previous excursion ended back at that basis, the retained factorization
// is reused and the child pays only its pivots. The return trip restores
// the bounds and re-solves warm from the parent basis, proving optimality
// immediately after one refactorization (the fair price of jumping to a
// different part of the tree).
func BenchmarkLPWarmResolve(b *testing.B) {
	p := buildBenchLP(150, 60)
	base, err := p.Solve(Options{})
	if err != nil || base.Status != Optimal {
		b.Fatalf("base solve: %v %v", err, base)
	}
	// Variable 2 is basic (interior) at the base optimum.
	lo0, up0 := p.Bounds(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetBounds(2, 0, 0); err != nil {
			b.Fatal(err)
		}
		child, err := p.Solve(Options{WarmStart: base.Basis})
		if err != nil {
			b.Fatal(err)
		}
		if child.Status != Optimal {
			b.Fatalf("child status %v", child.Status)
		}
		if err := p.SetBounds(2, lo0, up0); err != nil {
			b.Fatal(err)
		}
		back, err := p.Solve(Options{WarmStart: base.Basis})
		if err != nil {
			b.Fatal(err)
		}
		if back.Status != Optimal {
			b.Fatalf("restore status %v", back.Status)
		}
	}
}

// BenchmarkLPRefactorize times one basis refactorization at period-model
// shape, where BenchmarkLPSolve's 60 rows are too few to show a cubic term:
// the real Ans (m = 221) and Cwix (m = 290) period models under testdata,
// each at the all-logical basis every cold solve starts from (k/m = 0) and
// at its LP optimum (k/m ≈ 0.65 structural basic columns) — the two kinds
// of basis branch and bound refactorizes once per node.
func BenchmarkLPRefactorize(b *testing.B) {
	for _, name := range periodModels {
		p := readProblem(b, name)
		sol, err := p.Solve(Options{})
		if err != nil || sol.Status != Optimal {
			b.Fatalf("%s: %v %v", name, err, sol)
		}
		ws := p.ws
		optimal := append([]int(nil), ws.basic...)
		logical := make([]int, ws.m)
		for r := range logical {
			logical[r] = ws.n + r
		}
		for _, bc := range []struct {
			name  string
			basic []int
		}{{"logical", logical}, {"optimal", optimal}} {
			b.Run(strings.TrimSuffix(name, ".lp")+"/"+bc.name, func(b *testing.B) {
				copy(ws.basic, bc.basic)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ws.refactorize(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
