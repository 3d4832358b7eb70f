package experiments

import (
	"fmt"
	"time"

	"janus/internal/core"
	"janus/internal/workload"
)

// Fig14 measures warm-start behavior under endpoint churn (§7.2): after an
// initial configuration, move a growing number of endpoints and
// reconfigure warm (with path-change penalties), reporting the number of
// path changes and the time decrease relative to solving from scratch.
// The paper's shape: near-zero path changes for small change counts, and a
// crossover where warm start becomes slower than cold for large churn.
func Fig14(p Params) ([]Table, error) {
	p = p.withDefaults()
	policies := p.scaled(20)
	eps := 2
	changeSweep := []int{0, 2, 5, 10, 20, 40} // paper: 0..600 over 600 policies

	t := Table{
		Title: fmt.Sprintf("Fig 14 — warm start under endpoint churn (%d policies, %d endpoints each, Internode)", policies, eps),
		Header: []string{"endpoint changes", "path changes", "warm LP iters", "cold LP iters",
			"warm time", "cold time", "time decrease"},
	}
	for _, changes := range changeSweep {
		ch := changes
		var pathChanges, warmIters, coldIters int
		var warmDur, coldDur time.Duration
		for r := 0; r < p.Runs; r++ {
			seed := p.Seed + int64(r)*7919
			w, err := workload.Generate("Internode", workload.Spec{
				Policies: policies, EndpointsPerPolicy: eps, Seed: seed,
			})
			if err != nil {
				return nil, fmt.Errorf("fig14: %w", err)
			}
			conf, err := core.New(w.Topo, w.Graph, core.Config{
				CandidatePaths: 5, Seed: seed, TimeLimit: p.TimeLimit,
			})
			if err != nil {
				return nil, err
			}
			initial, err := conf.Configure(0)
			if err != nil {
				return nil, fmt.Errorf("fig14 initial: %w", err)
			}
			w.MoveRandomEndpoints(newRNG(seed+1), ch)

			start := time.Now()
			warm, err := conf.Reconfigure(initial)
			if err != nil {
				return nil, fmt.Errorf("fig14 warm: %w", err)
			}
			warmDur += time.Since(start)
			warmIters += warm.Stats.LPIterations

			start = time.Now()
			cold, err := conf.Configure(0)
			if err != nil {
				return nil, fmt.Errorf("fig14 cold: %w", err)
			}
			coldDur += time.Since(start)
			coldIters += cold.Stats.LPIterations
			pathChanges += core.CountPathChanges(initial, warm)
		}
		pathChanges /= p.Runs
		warmIters /= p.Runs
		coldIters /= p.Runs
		warmDur /= time.Duration(p.Runs)
		coldDur /= time.Duration(p.Runs)
		decrease := pct(float64(coldDur-warmDur), float64(coldDur))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ch), fmt.Sprint(pathChanges),
			fmt.Sprint(warmIters), fmt.Sprint(coldIters),
			fmtDur(warmDur), fmtDur(coldDur), fmtPct(decrease),
		})
	}
	return []Table{t}, nil
}

// Fig15 sweeps the soft-constraint penalty λ for stateful policies (§7.3):
// each policy has one default and two non-default escalation edges. Low λ
// keeps all defaults configured while still reserving a large share of
// escalation paths; high λ trades default coverage for reservations.
func Fig15(p Params) ([]Table, error) {
	p = p.withDefaults()
	policySweep := []int{p.scaled(5), p.scaled(10), p.scaled(15), p.scaled(20)}
	// λ > 1 makes an unreserved policy worth less than rejecting it
	// outright, so the trade-off between default coverage and reservations
	// becomes visible at the top of the sweep.
	lambdas := []float64{0.1, 0.2, 0.5, 1.0, 2.0}

	t := Table{
		Title:  "Fig 15 — stateful policies: % default and % non-default configured vs λ (Internode)",
		Header: []string{"policies", "lambda", "% default configured", "% non-default reserved"},
	}
	for _, n := range policySweep {
		for _, lambda := range lambdas {
			nn, ll := n, lambda
			var defSat, ndSat, runs int
			for r := 0; r < p.Runs; r++ {
				seed := p.Seed + int64(r)*7919
				w, err := workload.Generate("Internode", workload.Spec{
					Policies: nn, EndpointsPerPolicy: 2, StatefulEdges: 2, Seed: seed,
				})
				if err != nil {
					return nil, fmt.Errorf("fig15: %w", err)
				}
				conf, err := core.New(w.Topo, w.Graph, core.Config{
					CandidatePaths: 5, Seed: seed, Lambda: ll, TimeLimit: p.TimeLimit,
				})
				if err != nil {
					return nil, err
				}
				res, err := conf.Configure(0)
				if err != nil {
					return nil, fmt.Errorf("fig15 solve: %w", err)
				}
				defSat += res.SatisfiedCount()
				for pid, ok := range res.Configured {
					if ok && !res.SlackUsed[pid] {
						ndSat++
					}
				}
				runs += len(w.Graph.Policies)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(nn), fmt.Sprintf("%.1f", ll),
				fmtPct(pct(float64(defSat), float64(runs))),
				fmtPct(pct(float64(ndSat), float64(runs))),
			})
		}
	}
	return []Table{t}, nil
}

// Table5 compares the greedy temporal chain (§5.5) against independently
// re-solving each period: configured policies, % reduction in cross-period
// path changes (paper: >90%), and runtime. It does not run the joint
// optimization (Eqn 9), whose run in the paper never finished;
// BenchmarkAblationJointVsGreedy compares it with the chain on a small
// instance.
func Table5(p Params) ([]Table, error) {
	p = p.withDefaults()
	policySweep := []int{p.scaled(10), p.scaled(15), p.scaled(20), p.scaled(25)}
	periods := 5

	t := Table{
		Title:  fmt.Sprintf("Table 5 — temporal greedy vs independent re-solve (%d periods, Internode)", periods),
		Header: []string{"policies", "configured (greedy)", "path changes (greedy)", "path changes (indep)", "reduction", "time (greedy)"},
	}
	for _, n := range policySweep {
		nn := n
		var greedyChanges, indepChanges, configured int
		var dur time.Duration
		for r := 0; r < p.Runs; r++ {
			seed := p.Seed + int64(r)*7919
			greedy, indep, err := temporalPair(nn, periods, seed, p.TimeLimit)
			if err != nil {
				return nil, fmt.Errorf("table5 n=%d: %w", nn, err)
			}
			greedyChanges += greedy.PathChanges
			indepChanges += indep.PathChanges
			configured += greedy.TotalConfigured
			dur += greedy.Duration
		}
		greedyChanges /= p.Runs
		indepChanges /= p.Runs
		configured /= p.Runs
		dur /= time.Duration(p.Runs)
		reduction := pct(float64(indepChanges-greedyChanges), float64(indepChanges))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nn), fmt.Sprint(configured),
			fmt.Sprint(greedyChanges), fmt.Sprint(indepChanges),
			fmtPct(reduction), fmtDur(dur),
		})
	}
	return []Table{t}, nil
}

func temporalPair(policies, periods int, seed int64, limit time.Duration) (greedy, indep *core.TemporalResult, err error) {
	mk := func() (*core.Configurator, error) {
		w, err := workload.Generate("Internode", workload.Spec{
			Policies: policies, EndpointsPerPolicy: 2, TimePeriods: periods, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return core.New(w.Topo, w.Graph, core.Config{
			CandidatePaths: 5, Seed: seed, TimeLimit: limit,
		})
	}
	confG, err := mk()
	if err != nil {
		return nil, nil, err
	}
	greedy, err = confG.ConfigureTemporal()
	if err != nil {
		return nil, nil, err
	}
	confI, err := mk()
	if err != nil {
		return nil, nil, err
	}
	indep, err = confI.ConfigureTemporalIndependent()
	return greedy, indep, err
}

// Fig16 splits policies across three priority classes with weights 8/4/2
// and grows the load until the network saturates; the unconfigured
// policies should concentrate in the low class first, then medium, with
// high-priority policies rejected last (§7.5).
func Fig16(p Params) ([]Table, error) {
	p = p.withDefaults()
	policySweep := []int{p.scaled(15), p.scaled(25), p.scaled(35), p.scaled(45)}

	t := Table{
		Title:  "Fig 16 — unconfigured policies by priority class (weights 8/4/2, Ans)",
		Header: []string{"policies", "total unconfigured", "high", "med", "low"},
	}
	for _, n := range policySweep {
		nn := n
		var unHigh, unMed, unLow int
		for r := 0; r < p.Runs; r++ {
			seed := p.Seed + int64(r)*7919
			w, err := workload.Generate("Ans", workload.Spec{
				Policies: nn, EndpointsPerPolicy: 2, Seed: seed,
				PriorityClasses: []float64{8, 4, 2},
			})
			if err != nil {
				return nil, fmt.Errorf("fig16: %w", err)
			}
			conf, err := core.New(w.Topo, w.Graph, core.Config{
				CandidatePaths: 5, Seed: seed, TimeLimit: p.TimeLimit,
			})
			if err != nil {
				return nil, err
			}
			res, err := conf.Configure(0)
			if err != nil {
				return nil, fmt.Errorf("fig16 solve: %w", err)
			}
			for _, pol := range w.Graph.Policies {
				if res.Configured[pol.ID] {
					continue
				}
				switch pol.Weight {
				case 8:
					unHigh++
				case 4:
					unMed++
				default:
					unLow++
				}
			}
		}
		unHigh /= p.Runs
		unMed /= p.Runs
		unLow /= p.Runs
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nn), fmt.Sprint(unHigh + unMed + unLow),
			fmt.Sprint(unHigh), fmt.Sprint(unMed), fmt.Sprint(unLow),
		})
	}
	return []Table{t}, nil
}

// Fig17 evaluates the negotiation strategy (§5.6 / §7.6) on a congested
// temporal workload: extra configured policies as N varies with K=100%,
// and as K varies with N=5%. The paper's shape: a peak around N=5%
// (larger shifts run out of headroom) and a plateau after K=60%.
func Fig17(p Params) ([]Table, error) {
	p = p.withDefaults()
	policies := p.scaled(30)
	periods := 4

	nSweep := []float64{1, 2, 5, 10, 20, 40}
	kSweep := []float64{20, 40, 60, 80, 100}

	// The §7.6 evaluation runs "under very congested conditions": heavier
	// per-policy bandwidth on the small Ans topology so a meaningful share
	// of policies is rejected and shifting bandwidth across periods can
	// admit them.
	mk := func(seed int64) (*core.Configurator, error) {
		w, err := workload.Generate("Ans", workload.Spec{
			Policies: policies, EndpointsPerPolicy: 2, TimePeriods: periods,
			MinBW: 20, MaxBW: 40, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return core.New(w.Topo, w.Graph, core.Config{
			CandidatePaths: 5, Seed: seed, TimeLimit: p.TimeLimit,
		})
	}

	tN := Table{
		Title:  fmt.Sprintf("Fig 17 (left) — extra configured policies vs N (K=100%%, %d policies, %d periods)", policies, periods),
		Header: []string{"N (%)", "baseline configured", "extra configured", "proposals"},
	}
	tK := Table{
		Title:  "Fig 17 (right) — extra configured policies vs K (N=5%)",
		Header: []string{"K (%)", "baseline configured", "extra configured", "proposals"},
	}
	run := func(K, N float64) (base, extra, props int, err error) {
		for r := 0; r < p.Runs; r++ {
			seed := p.Seed + int64(r)*7919
			conf, err := mk(seed)
			if err != nil {
				return 0, 0, 0, err
			}
			baseline, err := conf.ConfigureTemporal()
			if err != nil {
				return 0, 0, 0, err
			}
			nego, err := conf.Negotiate(baseline, K, N)
			if err != nil {
				return 0, 0, 0, err
			}
			base += baseline.TotalConfigured
			extra += nego.ExtraConfigured
			props += len(nego.Proposals)
		}
		return base / p.Runs, extra / p.Runs, props / p.Runs, nil
	}
	for _, n := range nSweep {
		base, extra, props, err := run(100, n)
		if err != nil {
			return nil, fmt.Errorf("fig17 N=%g: %w", n, err)
		}
		tN.Rows = append(tN.Rows, []string{
			fmt.Sprintf("%.0f", n), fmt.Sprint(base), fmt.Sprint(extra), fmt.Sprint(props),
		})
	}
	for _, k := range kSweep {
		base, extra, props, err := run(k, 5)
		if err != nil {
			return nil, fmt.Errorf("fig17 K=%g: %w", k, err)
		}
		tK.Rows = append(tK.Rows, []string{
			fmt.Sprintf("%.0f", k), fmt.Sprint(base), fmt.Sprint(extra), fmt.Sprint(props),
		})
	}
	return []Table{tN, tK}, nil
}
