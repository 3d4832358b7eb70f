// Benchmarks regenerating the Janus paper's evaluation (§7): one benchmark
// per table and figure, plus ablation benches for the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure/table bench executes the corresponding experiment harness at
// a reduced scale (see internal/experiments); cmd/janusbench prints the
// full tables. Ablation benches isolate one mechanism each so the cost of
// a design choice is measurable in isolation.
package janus_test

import (
	"fmt"
	"testing"
	"time"

	"janus/internal/core"
	"janus/internal/experiments"
	"janus/internal/lp"
	"janus/internal/workload"
)

func benchParams() experiments.Params {
	// Reduced scale and a tight per-solve cap: `go test -bench=.` runs
	// every experiment once; cmd/janusbench is the tool for larger sweeps.
	return experiments.Params{Scale: 0.4, Seed: 1, Runs: 1, TimeLimit: 5 * time.Second}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("experiment %s missing", name)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 11: runtime vs number of policies (ILP vs Janus, 4 topologies).
func BenchmarkFig11PolicySweep(b *testing.B) { runExperiment(b, "fig11") }

// Fig 12: runtime vs endpoints per policy.
func BenchmarkFig12EndpointSweep(b *testing.B) { runExperiment(b, "fig12") }

// Fig 13: optimality gap vs endpoints per policy.
func BenchmarkFig13OptimalityGap(b *testing.B) { runExperiment(b, "fig13") }

// Tables 3 and 4: candidate-path count vs gap and runtime reduction.
func BenchmarkTable34PathSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table34(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 14: warm start under endpoint churn.
func BenchmarkFig14WarmStart(b *testing.B) { runExperiment(b, "fig14") }

// Fig 15: stateful-policy λ sweep.
func BenchmarkFig15StatefulLambda(b *testing.B) { runExperiment(b, "fig15") }

// Table 5: temporal greedy chain vs independent re-solve.
func BenchmarkTable5TemporalGreedy(b *testing.B) { runExperiment(b, "table5") }

// Fig 16: weights as priorities.
func BenchmarkFig16Priorities(b *testing.B) { runExperiment(b, "fig16") }

// Fig 17: bandwidth negotiation N/K sweeps.
func BenchmarkFig17Negotiation(b *testing.B) { runExperiment(b, "fig17") }

// benchWorkload builds a mid-size workload once per benchmark.
func benchWorkload(b *testing.B, spec workload.Spec) *workload.Workload {
	b.Helper()
	w, err := workload.Generate("Internode", spec)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// configureOnce runs one period-0 configuration.
func configureOnce(b *testing.B, w *workload.Workload, cfg core.Config) *core.Result {
	b.Helper()
	conf, err := core.New(w.Topo, w.Graph, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := conf.Configure(0)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// Ablation: candidate-path count k (the §5.2 heuristic knob, Tables 3–4).
func BenchmarkAblationPaths(b *testing.B) {
	for _, k := range []int{1, 2, 5, 10, 0} {
		name := fmt.Sprintf("k=%d", k)
		if k == 0 {
			name = "k=all(ILP)"
		}
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b, workload.Spec{Policies: 15, EndpointsPerPolicy: 2, Seed: 2})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				configureOnce(b, w, core.Config{CandidatePaths: k, Seed: 2})
			}
		})
	}
}

// Ablation: warm vs cold start after small endpoint churn (Fig 14's
// mechanism in isolation).
func BenchmarkAblationWarmVsCold(b *testing.B) {
	w := benchWorkload(b, workload.Spec{Policies: 15, EndpointsPerPolicy: 2, Seed: 4})
	conf, err := core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 5, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	initial, err := conf.Configure(0)
	if err != nil {
		b.Fatal(err)
	}
	w.MoveRandomEndpoints(newRand(5), 2)
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := conf.Reconfigure(initial); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := conf.Configure(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the raw simplex on a representative LP relaxation (the eta-
// update/reinversion engine under the whole system).
func BenchmarkAblationSimplex(b *testing.B) {
	build := func() *lp.Problem {
		rng := newRand(8)
		p := lp.NewProblem()
		n, m := 400, 120
		for i := 0; i < n; i++ {
			p.AddVariable(0, 1, rng.Float64())
		}
		for r := 0; r < m; r++ {
			terms := make([]lp.Term, 0, 12)
			for j := 0; j < 12; j++ {
				terms = append(terms, lp.Term{Var: rng.Intn(n), Coef: 1 + rng.Float64()*20})
			}
			if _, err := p.AddConstraint(lp.LE, 40, terms); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("%v %v", err, sol.Status)
		}
	}
}

// Ablation: temporal greedy chain vs joint optimization (Eqn 9) on a tiny
// instance — the joint form explodes with periods (the paper's never
// finished).
func BenchmarkAblationJointVsGreedy(b *testing.B) {
	mk := func() *core.Configurator {
		w, err := workload.Generate("Ans", workload.Spec{
			Policies: 4, EndpointsPerPolicy: 1, TimePeriods: 2, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		conf, err := core.New(w.Topo, w.Graph, core.Config{CandidatePaths: 3, Seed: 9, TimeLimit: 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		return conf
	}
	b.Run("greedy", func(b *testing.B) {
		conf := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conf.ConfigureTemporal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("joint", func(b *testing.B) {
		conf := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conf.ConfigureTemporalJoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
