package experiments

import (
	"fmt"
	"time"

	"janus/internal/core"
	"janus/internal/workload"
)

// The four topologies of Figs 11–13 and the five of Tables 3–4, matching
// the paper's choices.
var (
	figTopos   = []string{"Ans", "Cwix", "Internode", "Redbestel"}
	tableTopos = []string{"Ans", "Agis", "CrlNetServ", "Cwix", "Garr201008"}
)

// Fig11 sweeps the number of policies with endpoints/policy fixed and
// compares the full ILP (all candidate paths) against Janus (k=5 random
// paths) on four topologies. The paper reports Janus "significantly faster
// across all topologies", difference growing with policy count, with a 0%
// optimality gap throughout the sweep.
func Fig11(p Params) ([]Table, error) {
	p = p.withDefaults()
	policyCounts := []int{p.scaled(10), p.scaled(20), p.scaled(30), p.scaled(40), p.scaled(50)}
	eps := 2 // paper: 20; scaled with the smaller policy counts

	var tables []Table
	for _, topoName := range figTopos {
		t := Table{
			Title:  fmt.Sprintf("Fig 11 — %s: runtime vs number of policies (%d endpoints each)", topoName, eps),
			Header: []string{"policies", "ILP time", "Janus time", "ILP sat", "Janus sat", "gap"},
		}
		for _, n := range policyCounts {
			spec := workload.Spec{Policies: n, EndpointsPerPolicy: eps}
			ilp, janus, err := comparePair(p, topoName, spec)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s n=%d: %w", topoName, n, err)
			}
			gap := pct(float64(ilp.satisfied-janus.satisfied), float64(ilp.satisfied))
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmtDur(ilp.duration), fmtDur(janus.duration),
				fmt.Sprint(ilp.satisfied), fmt.Sprint(janus.satisfied), fmtPct(gap),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig12 fixes the policy count and sweeps endpoints per policy.
func Fig12(p Params) ([]Table, error) {
	p = p.withDefaults()
	policies := p.scaled(25)
	epsSweep := []int{1, 2, 3, 4, 5} // paper: 10..50

	var tables []Table
	for _, topoName := range figTopos {
		t := Table{
			Title:  fmt.Sprintf("Fig 12 — %s: runtime vs endpoints per policy (%d policies)", topoName, policies),
			Header: []string{"endpoints", "ILP time", "Janus time", "ILP sat", "Janus sat"},
		}
		for _, eps := range epsSweep {
			spec := workload.Spec{Policies: policies, EndpointsPerPolicy: eps}
			ilp, janus, err := comparePair(p, topoName, spec)
			if err != nil {
				return nil, fmt.Errorf("fig12 %s eps=%d: %w", topoName, eps, err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(eps), fmtDur(ilp.duration), fmtDur(janus.duration),
				fmt.Sprint(ilp.satisfied), fmt.Sprint(janus.satisfied),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig13 reports the optimality gap of the endpoints sweep; the paper keeps
// it under 20%.
func Fig13(p Params) ([]Table, error) {
	p = p.withDefaults()
	policies := p.scaled(25)
	epsSweep := []int{1, 2, 3, 4, 5}
	t := Table{
		Title:  fmt.Sprintf("Fig 13 — optimality gap vs endpoints per policy (%d policies)", policies),
		Header: append([]string{"endpoints"}, figTopos...),
	}
	for _, eps := range epsSweep {
		row := []string{fmt.Sprint(eps)}
		for _, topoName := range figTopos {
			spec := workload.Spec{Policies: policies, EndpointsPerPolicy: eps}
			ilp, janus, err := comparePair(p, topoName, spec)
			if err != nil {
				return nil, fmt.Errorf("fig13 %s eps=%d: %w", topoName, eps, err)
			}
			gap := pct(float64(ilp.satisfied-janus.satisfied), float64(ilp.satisfied))
			row = append(row, fmtPct(gap))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Table3 sweeps the candidate-path count k on five topologies, reporting
// the optimality gap vs the full ILP. The paper's shape: gap grows as k
// shrinks (0% at k=20 down to ~25–37% at k=1), and k=5 balances gap vs
// runtime.
func Table3(p Params) ([]Table, error) {
	t3, _, err := table34(p)
	return []Table{t3}, err
}

// Table4 reports the runtime reduction of the same sweep: fewer candidate
// paths means a smaller model and a large reduction vs the full ILP.
func Table4(p Params) ([]Table, error) {
	_, t4, err := table34(p)
	return []Table{t4}, err
}

func table34(p Params) (Table, Table, error) {
	p = p.withDefaults()
	policies := p.scaled(30)
	eps := 3 // paper: 40 endpoints with 1000 policies
	kSweep := []int{20, 10, 5, 2, 1}

	t3 := Table{
		Title:  fmt.Sprintf("Table 3 — optimality gap (%%) vs number of candidate paths (%d policies, %d endpoints)", policies, eps),
		Header: append([]string{"topology"}, kHeader(kSweep)...),
	}
	t4 := Table{
		Title:  "Table 4 — runtime reduction (%) vs number of candidate paths",
		Header: append([]string{"topology"}, kHeader(kSweep)...),
	}
	for _, topoName := range tableTopos {
		spec := workload.Spec{Policies: policies, EndpointsPerPolicy: eps}
		ilp, err := avg(p, func(seed int64) (measurement, error) {
			s := spec
			s.Seed = seed
			return solveOnce(topoName, s, ilpConfig(seed), 4*p.TimeLimit)
		})
		if err != nil {
			return Table{}, Table{}, fmt.Errorf("table3/4 %s ilp: %w", topoName, err)
		}
		row3 := []string{topoName}
		row4 := []string{topoName}
		for _, k := range kSweep {
			kk := k
			m, err := avg(p, func(seed int64) (measurement, error) {
				s := spec
				s.Seed = seed
				return solveOnce(topoName, s, core.Config{CandidatePaths: kk, Seed: seed}, p.TimeLimit)
			})
			if err != nil {
				return Table{}, Table{}, fmt.Errorf("table3/4 %s k=%d: %w", topoName, k, err)
			}
			gap := pct(float64(ilp.satisfied-m.satisfied), float64(ilp.satisfied))
			reduction := pct(float64(ilp.duration-m.duration), float64(ilp.duration))
			row3 = append(row3, fmtPct(gap))
			row4 = append(row4, fmtPct(reduction))
		}
		t3.Rows = append(t3.Rows, row3)
		t4.Rows = append(t4.Rows, row4)
	}
	return t3, t4, nil
}

func kHeader(ks []int) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("%d paths", k)
	}
	return out
}

// comparePair measures the full ILP and the Janus heuristic (k=5) on the
// same workload. The ILP baseline runs with the stall cutoff disabled and
// a quadrupled time budget: it stands in for the paper's exact solver, and
// its runtime being larger IS the result Figs 11–12 report.
func comparePair(p Params, topoName string, spec workload.Spec) (ilp, janus measurement, err error) {
	ilp, err = avg(p, func(seed int64) (measurement, error) {
		s := spec
		s.Seed = seed
		return solveOnce(topoName, s, ilpConfig(seed), 4*p.TimeLimit)
	})
	if err != nil {
		return
	}
	janus, err = avg(p, func(seed int64) (measurement, error) {
		s := spec
		s.Seed = seed
		return solveOnce(topoName, s, core.Config{CandidatePaths: 5, Seed: seed}, p.TimeLimit)
	})
	return
}

// ilpConfig is the exact-baseline solver profile.
func ilpConfig(seed int64) core.Config {
	return core.Config{CandidatePaths: 0, Seed: seed, StallNodes: -1, MaxNodes: 200000}
}

var _ = time.Second
