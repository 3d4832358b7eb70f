// Package difftest is the differential test harness for the MILP solver:
// the permanent correctness gate for any future solver change.
//
// Branch and bound with several workers explores nodes in nondeterministic
// order, so bit-for-bit comparison against the one-worker dive is
// impossible by design. What must hold instead — and what this package
// asserts — is the *contract*: on the same instance, the one-worker solve
// (Report.Serial) and the many-worker solve (Report.Parallel) prove the
// same optimal objective value (within tolerance), and every returned
// solution is genuinely feasible and integral when re-checked against the
// problem data from scratch, without trusting any solver bookkeeping.
//
// The harness has two instance sources: seeded random generators spanning
// the model shapes Janus emits (pure packing, group-indicator models with
// EQ convexity rows mirroring Eqn 2, mixed integer/continuous, soft-slack
// models mirroring Eqn 4), and corpus replays of the real fig11/temporal/
// stateful period models driven from internal/core's tests.
package difftest

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"janus/internal/lp"
	"janus/internal/milp"
)

// Harness tolerances.
const (
	// RelTol is the required relative agreement between the one-worker and
	// the many-worker objective values.
	RelTol = 1e-6
	// FeasTol is the absolute violation allowed when re-checking a
	// solution against rows, bounds, and integrality.
	FeasTol = 1e-6
	// proveGap is the gap both solves run at — far tighter than RelTol so
	// the comparison is meaningful.
	proveGap = 1e-9
)

// Instance is one MILP under differential test.
type Instance struct {
	Name     string
	Prob     *lp.Problem
	Integers []int
}

// Generate returns the seed-th random instance, cycling over the generator
// families. Every family is feasible by construction (the all-zero point
// satisfies all rows), so a solver returning anything but Optimal on them
// is itself a finding.
func Generate(seed int64) Instance {
	rng := rand.New(rand.NewSource(seed*2654435761 + 1))
	switch seed % 4 {
	case 0:
		return packing(seed, rng)
	case 1:
		return groupModel(seed, rng)
	case 2:
		return mixed(seed, rng)
	default:
		return softSlack(seed, rng)
	}
}

// packing: n binaries under m LE capacity rows with nonnegative
// coefficients — the knapsack-like core of the Janus capacity constraints
// (Eqn 3).
func packing(seed int64, rng *rand.Rand) Instance {
	p := lp.NewProblem()
	n := 8 + rng.Intn(13) // 8..20
	m := 2 + rng.Intn(7)  // 2..8
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddBinary(0.5 + rng.Float64()*4)
	}
	for r := 0; r < m; r++ {
		terms := make([]lp.Term, 0, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.55 {
				terms = append(terms, lp.Term{Var: vars[i], Coef: 0.5 + rng.Float64()*3})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, lp.Term{Var: vars[rng.Intn(n)], Coef: 1})
		}
		mustRow(p, lp.LE, 1.5+rng.Float64()*5, terms)
	}
	return Instance{Name: fmt.Sprintf("packing/%d", seed), Prob: p, Integers: vars}
}

// groupModel mirrors the Janus period model's skeleton: group indicators
// I_g with convexity rows Σ_p P_{g,p} = I_g (Eqn 2) over candidate-path
// indicators, all competing for LE capacity rows (Eqn 3). Group atomicity
// plus shared capacity is exactly the structure that makes the real models
// branch.
func groupModel(seed int64, rng *rand.Rand) Instance {
	p := lp.NewProblem()
	groups := 3 + rng.Intn(5) // 3..7
	links := 3 + rng.Intn(4)  // 3..6 capacity rows
	var integers []int
	linkTerms := make([][]lp.Term, links)
	for g := 0; g < groups; g++ {
		iv := p.AddBinary(1 + rng.Float64()*4) // weight of the group
		integers = append(integers, iv)
		pairs := 1 + rng.Intn(3)
		for q := 0; q < pairs; q++ {
			cands := 2 + rng.Intn(3)
			row := make([]lp.Term, 0, cands+1)
			for c := 0; c < cands; c++ {
				pv := p.AddBinary(0)
				integers = append(integers, pv)
				row = append(row, lp.Term{Var: pv, Coef: 1})
				// Each path crosses 1–3 random links with a bandwidth.
				bw := 5 + rng.Float64()*20
				for _, l := range rng.Perm(links)[:1+rng.Intn(3)] {
					linkTerms[l] = append(linkTerms[l], lp.Term{Var: pv, Coef: bw})
				}
			}
			row = append(row, lp.Term{Var: iv, Coef: -1})
			mustRow(p, lp.EQ, 0, row)
		}
	}
	for l := 0; l < links; l++ {
		if len(linkTerms[l]) == 0 {
			continue
		}
		// Tight enough that not every group fits.
		mustRow(p, lp.LE, 20+rng.Float64()*40, linkTerms[l])
	}
	return Instance{Name: fmt.Sprintf("group/%d", seed), Prob: p, Integers: integers}
}

// mixed adds continuous variables alongside binaries, as the α path-change
// and ξ slack variables do in the real models.
func mixed(seed int64, rng *rand.Rand) Instance {
	p := lp.NewProblem()
	nb := 6 + rng.Intn(9) // 6..14 binaries
	nc := 2 + rng.Intn(4) // 2..5 continuous
	vars := make([]int, nb)
	for i := range vars {
		vars[i] = p.AddBinary(0.5 + rng.Float64()*3)
	}
	cont := make([]int, nc)
	for i := range cont {
		cont[i] = p.AddVariable(0, 1+rng.Float64()*4, rng.Float64()*2-0.5)
	}
	rows := 3 + rng.Intn(4)
	for r := 0; r < rows; r++ {
		terms := make([]lp.Term, 0, nb+nc)
		for i := 0; i < nb; i++ {
			if rng.Float64() < 0.5 {
				terms = append(terms, lp.Term{Var: vars[i], Coef: 0.5 + rng.Float64()*2})
			}
		}
		for i := 0; i < nc; i++ {
			if rng.Float64() < 0.5 {
				terms = append(terms, lp.Term{Var: cont[i], Coef: 0.5 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, lp.Term{Var: vars[0], Coef: 1})
		}
		mustRow(p, lp.LE, 2+rng.Float64()*4, terms)
	}
	return Instance{Name: fmt.Sprintf("mixed/%d", seed), Prob: p, Integers: vars}
}

// softSlack mirrors Eqn 4's soft reservations: Σ_p P = I − ξ with the
// slack ξ ∈ [0,1] penalized in the objective.
func softSlack(seed int64, rng *rand.Rand) Instance {
	p := lp.NewProblem()
	groups := 3 + rng.Intn(4)
	var integers []int
	capTerms := []lp.Term{}
	for g := 0; g < groups; g++ {
		iv := p.AddBinary(2 + rng.Float64()*3)
		xi := p.AddVariable(0, 1, -(0.2 + rng.Float64()*0.5)) // λ-like penalty
		integers = append(integers, iv)
		cands := 2 + rng.Intn(3)
		row := make([]lp.Term, 0, cands+2)
		for c := 0; c < cands; c++ {
			pv := p.AddBinary(0)
			integers = append(integers, pv)
			row = append(row, lp.Term{Var: pv, Coef: 1})
			capTerms = append(capTerms, lp.Term{Var: pv, Coef: 5 + rng.Float64()*15})
		}
		row = append(row, lp.Term{Var: iv, Coef: -1}, lp.Term{Var: xi, Coef: 1})
		mustRow(p, lp.EQ, 0, row)
	}
	mustRow(p, lp.LE, 15+rng.Float64()*30, capTerms)
	return Instance{Name: fmt.Sprintf("soft/%d", seed), Prob: p, Integers: integers}
}

func mustRow(p *lp.Problem, s lp.Sense, rhs float64, terms []lp.Term) {
	if _, err := p.AddConstraint(s, rhs, terms); err != nil {
		panic(err) // generator bug, not a solver finding
	}
}

// Report is the outcome of one differential run.
type Report struct {
	Serial   *milp.Solution
	Parallel *milp.Solution
}

// Compare solves the instance with one worker and with the given worker
// count and cross-checks the contract: matching status, objectives within
// RelTol, both solutions feasible/integral when re-verified against the
// raw problem data, and each solve's objective within the other's proof
// bound.
// Extra options (node limits, branching rules) can be overlaid via opts;
// Workers and RelGap are owned by the harness.
func Compare(ctx context.Context, inst Instance, workers int, opts milp.Options) (*Report, error) {
	opts.RelGap = proveGap
	opts.Workers = 1
	serial, err := milp.NewSolver(inst.Prob.Clone(), inst.Integers).Solve(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: serial solve: %w", inst.Name, err)
	}
	opts.Workers = workers
	parallel, err := milp.NewSolver(inst.Prob.Clone(), inst.Integers).Solve(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: parallel solve: %w", inst.Name, err)
	}
	rep := &Report{Serial: serial, Parallel: parallel}

	if serial.Status != parallel.Status {
		return rep, fmt.Errorf("%s: status diverged: serial %v, parallel %v", inst.Name, serial.Status, parallel.Status)
	}
	if serial.X != nil || parallel.X != nil {
		if serial.X == nil || parallel.X == nil {
			return rep, fmt.Errorf("%s: incumbent presence diverged (serial %v, parallel %v)",
				inst.Name, serial.X != nil, parallel.X != nil)
		}
		denom := math.Max(1, math.Abs(serial.Objective))
		if math.Abs(serial.Objective-parallel.Objective)/denom > RelTol {
			return rep, fmt.Errorf("%s: objectives diverged: serial %.12g, parallel %.12g (rel %.3g)",
				inst.Name, serial.Objective, parallel.Objective,
				math.Abs(serial.Objective-parallel.Objective)/denom)
		}
		if err := CheckSolution(inst.Prob, inst.Integers, serial); err != nil {
			return rep, fmt.Errorf("%s: serial solution: %w", inst.Name, err)
		}
		if err := CheckSolution(inst.Prob, inst.Integers, parallel); err != nil {
			return rep, fmt.Errorf("%s: parallel solution: %w", inst.Name, err)
		}
		// Each incumbent must respect the other's proof bound: a valid bound
		// dominates every feasible point.
		if serial.Objective > parallel.Bound+FeasTol*denom {
			return rep, fmt.Errorf("%s: parallel bound %.12g below serial incumbent %.12g",
				inst.Name, parallel.Bound, serial.Objective)
		}
		if parallel.Objective > serial.Bound+FeasTol*denom {
			return rep, fmt.Errorf("%s: serial bound %.12g below parallel incumbent %.12g",
				inst.Name, serial.Bound, parallel.Objective)
		}
	}
	return rep, nil
}

// CheckSolution re-verifies a solution against the problem from first
// principles: every constraint row within FeasTol, every variable within
// its bounds, every integer variable at 0 or 1, and the reported objective
// equal to c·x. It deliberately trusts nothing the solver reported except
// X and Objective.
func CheckSolution(prob *lp.Problem, integers []int, sol *milp.Solution) error {
	x := sol.X
	if x == nil {
		return fmt.Errorf("no solution vector")
	}
	if len(x) != prob.NumVariables() {
		return fmt.Errorf("solution has %d values for %d variables", len(x), prob.NumVariables())
	}
	for v := 0; v < prob.NumVariables(); v++ {
		lo, up := prob.Bounds(v)
		if x[v] < lo-FeasTol || x[v] > up+FeasTol {
			return fmt.Errorf("x[%d] = %g outside [%g, %g]", v, x[v], lo, up)
		}
	}
	for _, v := range integers {
		f := x[v] - math.Floor(x[v])
		if f > FeasTol && f < 1-FeasTol {
			return fmt.Errorf("integer variable %d = %g is fractional", v, x[v])
		}
	}
	for i := 0; i < prob.NumConstraints(); i++ {
		sense, rhs, terms := prob.Constraint(i)
		lhs := 0.0
		for _, t := range terms {
			lhs += t.Coef * x[t.Var]
		}
		switch sense {
		case lp.LE:
			if lhs > rhs+FeasTol {
				return fmt.Errorf("row %d: %g > %g (LE)", i, lhs, rhs)
			}
		case lp.GE:
			if lhs < rhs-FeasTol {
				return fmt.Errorf("row %d: %g < %g (GE)", i, lhs, rhs)
			}
		case lp.EQ:
			if math.Abs(lhs-rhs) > FeasTol {
				return fmt.Errorf("row %d: %g != %g (EQ)", i, lhs, rhs)
			}
		}
	}
	obj := 0.0
	for v := 0; v < prob.NumVariables(); v++ {
		obj += prob.ObjectiveCoef(v) * x[v]
	}
	if math.Abs(obj-sol.Objective) > FeasTol*math.Max(1, math.Abs(obj)) {
		return fmt.Errorf("reported objective %g != recomputed %g", sol.Objective, obj)
	}
	return nil
}
