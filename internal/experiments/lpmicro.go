package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	//janus:allow(layercheck): the lp_micro bench section measures the solver layer directly, bypassing core on purpose
	"janus/internal/lp"
)

// LPMicroBench is the simplex-level microbenchmark embedded in the
// janusbench JSON document (schema_version ≥ 2). It captures the two
// latencies branch and bound is built from — a cold solve from scratch and
// a warm re-solve after one bound flip — plus the steady-state allocation
// rate of the warm path, so a solver regression is caught at the layer
// that caused it rather than inferred from end-to-end wall clock.
type LPMicroBench struct {
	Vars int `json:"vars"`
	Rows int `json:"rows"`
	// ColdMicros is the mean cold-solve latency in microseconds (of the
	// fastest round, as is WarmMicros).
	ColdMicros float64 `json:"cold_micros"`
	// WarmMicros is the mean warm re-solve latency (bound flip + warm
	// start from the base basis) in microseconds.
	WarmMicros float64 `json:"warm_micros"`
	// WarmAllocsPerSolve is the mean heap allocations per warm re-solve.
	WarmAllocsPerSolve float64 `json:"warm_allocs_per_solve"`
	// WarmIterations is the mean simplex pivot count per warm re-solve.
	WarmIterations float64 `json:"warm_iterations"`
}

// lpMicroProblem mirrors the packing LP of internal/lp's microbenchmarks:
// a Janus-relaxation-shaped instance, deterministic across runs.
func lpMicroProblem(n, m int) *lp.Problem {
	rng := rand.New(rand.NewSource(99))
	p := lp.NewProblem()
	for i := 0; i < n; i++ {
		p.AddVariable(0, 1+rng.Float64()*3, rng.Float64()*10)
	}
	for r := 0; r < m; r++ {
		terms := make([]lp.Term, 0, n/3)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.3 {
				terms = append(terms, lp.Term{Var: v, Coef: 0.2 + rng.Float64()*2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, lp.Term{Var: rng.Intn(n), Coef: 1})
		}
		if _, err := p.AddConstraint(lp.LE, 3+rng.Float64()*float64(n)/4, terms); err != nil {
			panic(err)
		}
	}
	return p
}

// RunLPMicro measures the LP microbenchmark three times over and
// keeps the fastest cold and warm latency. The work is deterministic, so
// the fastest round is the one the host disturbed least — and a round is a
// third of a second at the very start of the process, where this host
// often runs a half slower for a second: against a baseline with no slack
// left under benchdiff's 20 % rule, a single round failed the gate two
// times in five.
func RunLPMicro() (*LPMicroBench, error) {
	const rounds = 3
	var best *LPMicroBench
	for round := 0; round < rounds; round++ {
		b, err := runLPMicroRound()
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = b
			continue
		}
		best.ColdMicros = math.Min(best.ColdMicros, b.ColdMicros)
		best.WarmMicros = math.Min(best.WarmMicros, b.WarmMicros)
	}
	return best, nil
}

// runLPMicroRound is one round of RunLPMicro, with iteration counts chosen
// for stable sub-second runtime.
func runLPMicroRound() (*LPMicroBench, error) {
	const n, m, coldIters, warmIters = 150, 60, 50, 2000
	b := &LPMicroBench{Vars: n, Rows: m}

	cold := lpMicroProblem(n, m)
	start := time.Now()
	for i := 0; i < coldIters; i++ {
		sol, err := cold.Solve(lp.Options{})
		if err != nil {
			return nil, fmt.Errorf("lpmicro cold: %w", err)
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("lpmicro cold: status %v", sol.Status)
		}
	}
	b.ColdMicros = float64(time.Since(start).Microseconds()) / coldIters

	warm := lpMicroProblem(n, m)
	base, err := warm.Solve(lp.Options{})
	if err != nil || base.Status != lp.Optimal {
		return nil, fmt.Errorf("lpmicro base: %v", err)
	}
	// The branch-and-bound node pattern (mirrors BenchmarkLPWarmResolve):
	// each round is a parent→child→parent excursion. Fixing variable 2 —
	// basic at the parent optimum — forces real pivots on the child leg;
	// the return leg re-solves at the parent basis after one
	// refactorization. Both legs count as solves in the averages.
	lo0, up0 := warm.Bounds(2)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	iters := 0
	start = time.Now()
	for i := 0; i < warmIters/2; i++ {
		if err := warm.SetBounds(2, 0, 0); err != nil {
			return nil, err
		}
		child, err := warm.Solve(lp.Options{WarmStart: base.Basis})
		if err != nil || child.Status != lp.Optimal {
			return nil, fmt.Errorf("lpmicro warm child: %v", err)
		}
		if err := warm.SetBounds(2, lo0, up0); err != nil {
			return nil, err
		}
		back, err := warm.Solve(lp.Options{WarmStart: base.Basis})
		if err != nil || back.Status != lp.Optimal {
			return nil, fmt.Errorf("lpmicro warm restore: %v", err)
		}
		iters += child.Iterations + back.Iterations
	}
	solves := 2 * (warmIters / 2)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	b.WarmMicros = float64(elapsed.Microseconds()) / float64(solves)
	b.WarmAllocsPerSolve = float64(ms1.Mallocs-ms0.Mallocs) / float64(solves)
	b.WarmIterations = float64(iters) / float64(solves)
	return b, nil
}
