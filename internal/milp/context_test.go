package milp

import (
	"context"
	"errors"
	"testing"

	"janus/internal/lp"
)

// hardProblem builds an instance big enough that branch and bound explores
// many nodes: a knapsack-like 0/1 program with correlated weights.
func hardProblem(n int) (*lp.Problem, []int) {
	p := lp.NewProblem()
	vars := make([]int, n)
	terms := make([]lp.Term, n)
	for i := range vars {
		vars[i] = p.AddBinary(float64(3 + i%7))
		terms[i] = lp.Term{Var: vars[i], Coef: float64(2 + i%5)}
	}
	// Tight capacity keeps the relaxation fractional nearly everywhere.
	if _, err := p.AddConstraint(lp.LE, float64(n), terms); err != nil {
		panic(err)
	}
	return p, vars
}

func TestSolveCancelledContext(t *testing.T) {
	p, vars := hardProblem(40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewSolver(p, vars).Solve(ctx, Options{})
	if err == nil {
		t.Fatal("cancelled context should abort the solve")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got %v", err)
	}
}

func TestSolveNilContext(t *testing.T) {
	p, vars := hardProblem(6)
	//lint:ignore SA1012 nil context is explicitly supported (defaults to Background)
	sol, err := NewSolver(p, vars).Solve(nil, Options{}) //nolint:staticcheck
	if err != nil {
		t.Fatalf("nil context should default to Background: %v", err)
	}
	if sol.X == nil {
		t.Fatal("solve should produce a solution")
	}
}

func TestSolveContextCancelMidSearch(t *testing.T) {
	// The cancellation check sits at the top of the node loop, so a context
	// cancelled after the root solve must abort before exploring the tree.
	p, vars := hardProblem(40)
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSolver(p, vars)
	done := make(chan struct{})
	var solveErr error
	go func() {
		defer close(done)
		_, solveErr = s.Solve(ctx, Options{})
	}()
	cancel()
	<-done
	// Either the solve finished before the cancel landed (tiny instance
	// timing) or it aborted with the context error; both are valid, but an
	// unrelated error is not.
	if solveErr != nil && !errors.Is(solveErr, context.Canceled) {
		t.Fatalf("unexpected error: %v", solveErr)
	}
}
