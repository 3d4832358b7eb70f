package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"janus/internal/lp"
	"janus/internal/milp"
	"janus/internal/milp/difftest"
	"janus/internal/workload"
)

// This file feeds the differential harness with corpus instances extracted
// from the *real* period models — the fig11 topologies, temporal windows,
// stateful (soft-edge) reservations, and path-change-penalized
// reconfigurations — rather than synthetic generator shapes. It lives in
// package core because extracting a model requires the unexported
// buildModel.

// corpusModel builds the period-h model for a generated workload and wraps
// it as a difftest instance.
func corpusModel(t *testing.T, name, topoName string, spec workload.Spec, cfg Config, h int, withPrev bool) difftest.Instance {
	t.Helper()
	w, err := workload.Generate(topoName, spec)
	if err != nil {
		t.Fatal(err)
	}
	conf := mustNew(t, w.Topo, w.Graph, cfg)
	var prev []Assignment
	if withPrev {
		res, err := conf.Configure(h)
		if err != nil {
			t.Fatal(err)
		}
		prev = res.Assignments
	}
	m, err := conf.buildModel(h, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	return difftest.Instance{Name: name, Prob: m.prob, Integers: m.integers}
}

func TestDifferentialCorpusRealModels(t *testing.T) {
	fig11 := workload.Spec{Policies: 6, EndpointsPerPolicy: 2, Seed: 7}
	temporal := workload.Spec{Policies: 5, EndpointsPerPolicy: 2, TimePeriods: 3, Seed: 11}
	stateful := workload.Spec{Policies: 5, EndpointsPerPolicy: 2, StatefulEdges: 2, Seed: 13}

	instances := []difftest.Instance{
		// Fig 11 shapes: the paper's headline experiment topologies.
		corpusModel(t, "corpus/fig11-ans", "Ans", fig11, Config{Seed: 7}, 0, false),
		corpusModel(t, "corpus/fig11-cwix", "Cwix", fig11, Config{Seed: 7}, 0, false),
		// Temporal policies active in different windows (§5.5).
		corpusModel(t, "corpus/temporal-h0", "Internode", temporal, Config{Seed: 11}, 0, false),
		corpusModel(t, "corpus/temporal-h12", "Internode", temporal, Config{Seed: 11}, 12, false),
		// Stateful escalations: soft edges with ξ slack (Eqn 4).
		corpusModel(t, "corpus/stateful", "Ans", stateful, Config{Seed: 13}, 0, false),
		// Reconfiguration against a previous assignment: path-change
		// penalties α (Eqns 7–8) add the mixed continuous structure.
		corpusModel(t, "corpus/reconfig", "Ans", fig11, Config{Seed: 7}, 0, true),
	}
	ctx := context.Background()
	for _, inst := range instances {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			rep, err := difftest.Compare(ctx, inst, 4, milp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Serial.X == nil {
				t.Fatalf("real model yielded no solution (status %v)", rep.Serial.Status)
			}
		})
	}
}

// TestPeriodModelFixtures keeps internal/lp/testdata/period-*.lp equal to
// the hour-12 period models of the 50-policy four-period workload on Ans
// and Cwix. Package lp cannot import this one, so its factorization oracle
// and BenchmarkLPRefactorize read real period models from those files;
// rerun with UPDATE_GOLDEN=1 after a change to the model builder.
func TestPeriodModelFixtures(t *testing.T) {
	spec := workload.Spec{Policies: 50, EndpointsPerPolicy: 3, TimePeriods: 4, Seed: 1}
	for _, topoName := range []string{"Ans", "Cwix"} {
		inst := corpusModel(t, "period-"+strings.ToLower(topoName), topoName, spec, Config{CandidatePaths: 5, Seed: 1}, 12, false)
		got := formatProblem(inst.Prob)
		path := filepath.Join("..", "lp", "testdata", inst.Name+".lp")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is not the current %s period model (rerun with UPDATE_GOLDEN=1 if intended)", path, topoName)
		}
	}
}

// formatProblem writes an LP in the line format lp's readProblem parses:
// "v lo up obj" per variable, then "r sense rhs var:coef ..." per row.
func formatProblem(p *lp.Problem) []byte {
	var b bytes.Buffer
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for v := 0; v < p.NumVariables(); v++ {
		lo, up := p.Bounds(v)
		fmt.Fprintf(&b, "v %s %s %s\n", num(lo), num(up), num(p.ObjectiveCoef(v)))
	}
	for i := 0; i < p.NumConstraints(); i++ {
		sense, rhs, terms := p.Constraint(i)
		fmt.Fprintf(&b, "r %d %s", sense, num(rhs))
		for _, tm := range terms {
			fmt.Fprintf(&b, " %d:%s", tm.Var, num(tm.Coef))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}
