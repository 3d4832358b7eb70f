package core

import (
	"testing"

	"janus/internal/workload"
)

// TestSolverIterationEnvelope is a golden regression test over the fig11
// corpus models: it pins total simplex iterations and basis
// refactorizations of the one-worker solve inside a recorded envelope, and
// the size of its tree exactly. A pricing or eta-file change that silently
// triples iteration counts fails here even if wall clock on the CI machine
// absorbs it. The envelope is
// [half, double] of the values recorded when the dual simplex took over
// the node re-solves (the primal-only engine's were 1275/60 and 4920/77,
// both over 60 nodes) — wide enough for benign pivot-order drift, tight
// enough to catch an algorithmic regression. Determinism: same spec seed, Workers=1, no time
// limit, so counts are exactly reproducible on every platform.
func TestSolverIterationEnvelope(t *testing.T) {
	// The janusbench fig11 50-policy workload: large enough that branch and
	// bound explores a real tree (the 6-policy difftest corpus models solve
	// at the root in ~24 pivots, which an envelope cannot discriminate).
	fig11 := workload.Spec{Policies: 50, EndpointsPerPolicy: 2, Seed: 1}
	cases := []struct {
		topo string
		// recorded values with dual simplex node re-solves
		iters, refacts int
		// nodes is exact: pivot order may drift, the one-worker tree may not
		nodes int
	}{
		{topo: "Ans", iters: 1190, refacts: 77, nodes: 119},
		{topo: "Cwix", iters: 1672, refacts: 69, nodes: 60},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.topo, func(t *testing.T) {
			w, err := workload.Generate(tc.topo, fig11)
			if err != nil {
				t.Fatal(err)
			}
			conf := mustNew(t, w.Topo, w.Graph, Config{CandidatePaths: 5, Seed: 1, Workers: 1})
			res, err := conf.Configure(0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: iterations=%d refactorizations=%d pricingSwitches=%d nodes=%d",
				tc.topo, res.Stats.LPIterations, res.Stats.Refactorizations,
				res.Stats.PricingSwitches, res.Stats.Nodes)
			if res.Stats.Nodes != tc.nodes {
				t.Errorf("explored %d nodes, want exactly %d", res.Stats.Nodes, tc.nodes)
			}
			if res.Stats.LPIterations < tc.iters/2 || res.Stats.LPIterations > tc.iters*2 {
				t.Errorf("LP iterations %d outside golden envelope [%d, %d]",
					res.Stats.LPIterations, tc.iters/2, tc.iters*2)
			}
			if res.Stats.Refactorizations < tc.refacts/2 || res.Stats.Refactorizations > tc.refacts*2 {
				t.Errorf("refactorizations %d outside golden envelope [%d, %d]",
					res.Stats.Refactorizations, tc.refacts/2, tc.refacts*2)
			}
			if res.Stats.Refactorizations > res.Stats.LPIterations {
				t.Errorf("refactorizations %d exceed LP iterations %d: eta updates are not amortizing",
					res.Stats.Refactorizations, res.Stats.LPIterations)
			}
		})
	}
}
