package lp

import (
	"math"
	"testing"
)

// dualBound is the weak-duality bound y·b + Σ_j max(d_j·lo_j, d_j·up_j) of
// an Optimal solution of p, whose structural bounds are all finite. Any
// row-sign-feasible y gives an upper bound on the LP optimum; at an optimal
// basis it meets the primal objective, so a gap of zero certifies the
// solution optimal.
func dualBound(p *Problem, sol *Solution) float64 {
	bound := 0.0
	for i := 0; i < p.NumConstraints(); i++ {
		_, rhs, _ := p.Constraint(i)
		bound += sol.Duals[i] * rhs
	}
	for v := 0; v < p.NumVariables(); v++ {
		lo, up := p.Bounds(v)
		d := sol.ReducedCosts[v]
		bound += math.Max(d*lo, d*up)
	}
	return bound
}

// TestDualChildResolvePeriodModels branches both ways on every fractional
// variable of the root optimum of the real Ans and Cwix period models and
// re-solves each child twice: warm from the root basis (the dual simplex)
// and cold (the primal from the all-logical basis). Both must agree on
// status, and at Optimal on the objective to 1e-9 relative — unless the
// warm objective is the higher one and its own duality gap is within 1e-9,
// which certifies that the cold primal stopped short inside its pricing
// tolerance costTol. The warm side must need fewer pivots in total.
func TestDualChildResolvePeriodModels(t *testing.T) {
	for _, name := range periodModels {
		t.Run(name, func(t *testing.T) {
			p := readProblem(t, name)
			root, err := p.Solve(Options{})
			if err != nil || root.Status != Optimal {
				t.Fatalf("root: %v %v", err, root)
			}
			var children, warmPivots, coldPivots, coldShort int
			worst := 0.0
			ends := map[dualEnd]int{}
			for v := 0; v < p.NumVariables(); v++ {
				x := root.X[v]
				if x-math.Floor(x) <= 1e-6 || math.Ceil(x)-x <= 1e-6 {
					continue
				}
				lo, up := p.Bounds(v)
				for _, fix := range []float64{math.Floor(x), math.Ceil(x)} {
					if err := p.SetBounds(v, fix, fix); err != nil {
						t.Fatal(err)
					}
					warm, err := p.Solve(Options{WarmStart: root.Basis})
					if err != nil {
						t.Fatal(err)
					}
					ends[p.ws.dualRun]++
					cold, err := p.Solve(Options{})
					if err != nil {
						t.Fatal(err)
					}
					children++
					warmPivots += warm.Iterations
					coldPivots += cold.Iterations
					if warm.Status != cold.Status {
						t.Errorf("x%d = %g: warm %v, cold %v", v, fix, warm.Status, cold.Status)
					} else if warm.Status == Optimal {
						scale := math.Max(1, math.Abs(cold.Objective))
						diff := (warm.Objective - cold.Objective) / scale
						gap := (dualBound(p, warm) - warm.Objective) / scale
						switch {
						case math.Abs(diff) <= 1e-9:
						case diff > 0 && math.Abs(gap) <= 1e-9:
							coldShort++
							worst = math.Max(worst, diff)
						default:
							t.Errorf("x%d = %g: warm objective %.12g (duality gap %.3g), cold %.12g",
								v, fix, warm.Objective, gap, cold.Objective)
						}
					}
					if err := p.SetBounds(v, lo, up); err != nil {
						t.Fatal(err)
					}
				}
			}
			t.Logf("%d children: %d warm pivots, %d cold; dual runs: %d to feasibility, %d proved infeasible, %d handed over, %d skipped; "+
				"%d cold objectives short of the certified warm one (worst %.2g relative)",
				children, warmPivots, coldPivots, ends[dualReachedFeasible], ends[dualProvedInfeasible], ends[dualHandedOver], ends[dualSkipped],
				coldShort, worst)
			if children == 0 {
				t.Fatal("root optimum is integral: nothing to branch on")
			}
			if ends[dualSkipped] > 0 {
				t.Errorf("%d warm children never entered the dual", ends[dualSkipped])
			}
			if warmPivots >= coldPivots {
				t.Errorf("warm children took %d pivots, cold %d: the dual re-solve saves nothing", warmPivots, coldPivots)
			}
		})
	}
}
