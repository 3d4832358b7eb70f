package difftest

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"janus/internal/milp"
)

// numInstances is the acceptance floor from the harness design: at least
// 200 seeded instances across all generator families per run.
const numInstances = 240

// TestDifferentialSerialVsParallel is the gate: 240 seeded instances across
// the four generator families, each solved with 1 and 4 workers, objectives
// within RelTol and both solutions independently re-verified feasible.
func TestDifferentialSerialVsParallel(t *testing.T) {
	ctx := context.Background()
	fails := 0
	for seed := int64(0); seed < numInstances; seed++ {
		inst := Generate(seed)
		rep, err := Compare(ctx, inst, 4, milp.Options{})
		if err != nil {
			t.Errorf("%v", err)
			if fails++; fails > 10 {
				t.Fatal("too many differential failures; stopping early")
			}
			continue
		}
		if rep.Serial.Status != milp.Optimal {
			t.Errorf("%s: status %v, want Optimal (all generated instances are feasible by construction)",
				inst.Name, rep.Serial.Status)
		}
	}
}

// TestDifferentialManyWorkers stresses the queue with more workers than the
// container has cores, on a smaller sample.
func TestDifferentialManyWorkers(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 24; seed++ {
		if _, err := Compare(ctx, Generate(seed), 8, milp.Options{}); err != nil {
			t.Error(err)
		}
	}
}

// TestGenerateDeterministic: the same seed must always yield the same
// instance, or failures would be unreproducible.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Name != b.Name || a.Prob.NumVariables() != b.Prob.NumVariables() ||
			a.Prob.NumConstraints() != b.Prob.NumConstraints() {
			t.Fatalf("seed %d not deterministic: %s/%dv/%dc vs %s/%dv/%dc", seed,
				a.Name, a.Prob.NumVariables(), a.Prob.NumConstraints(),
				b.Name, b.Prob.NumVariables(), b.Prob.NumConstraints())
		}
		for v := 0; v < a.Prob.NumVariables(); v++ {
			if a.Prob.ObjectiveCoef(v) != b.Prob.ObjectiveCoef(v) { //janus:allow(floatcmp): same seed must give identical coefficients
				t.Fatalf("seed %d: objective coef %d differs", seed, v)
			}
		}
	}
}

// TestCheckSolutionCatchesViolations mutation-tests the harness itself: a
// corrupted solution must be rejected, otherwise the gate proves nothing.
func TestCheckSolutionCatchesViolations(t *testing.T) {
	inst := Generate(0) // packing family
	sol, err := milp.NewSolver(inst.Prob.Clone(), inst.Integers).Solve(context.Background(), milp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSolution(inst.Prob, inst.Integers, sol); err != nil {
		t.Fatalf("genuine optimum rejected: %v", err)
	}

	corrupt := func(mutate func(x []float64, s *milp.Solution)) error {
		c := *sol
		c.X = append([]float64(nil), sol.X...)
		mutate(c.X, &c)
		return CheckSolution(inst.Prob, inst.Integers, &c)
	}
	if err := corrupt(func(x []float64, s *milp.Solution) { x[inst.Integers[0]] = 0.5 }); err == nil ||
		!strings.Contains(err.Error(), "fractional") {
		t.Errorf("fractional integer not caught: %v", err)
	}
	if err := corrupt(func(x []float64, s *milp.Solution) { x[inst.Integers[0]] = 7 }); err == nil {
		t.Error("bound violation not caught")
	}
	if err := corrupt(func(x []float64, s *milp.Solution) { s.Objective += 1 }); err == nil ||
		!strings.Contains(err.Error(), "objective") {
		t.Errorf("objective mismatch not caught: %v", err)
	}
	if err := corrupt(func(x []float64, s *milp.Solution) {
		for i := range x {
			x[i] = 1 // saturating everything must break some capacity row
		}
		s.Objective = 0
	}); err == nil {
		t.Error("row violation not caught")
	}
}

// TestDifferentialOneWorkerTreePinned holds the Workers: 1 search tree to a
// recording: with one worker the frontier is a LIFO dive and the solve is
// deterministic, so status, node, pivot and refactorization counts must
// repeat exactly and the objective and bound to 1e-9. A solver change that
// means to alter the tree reruns with UPDATE_GOLDEN=1 and says so.
func TestDifferentialOneWorkerTreePinned(t *testing.T) {
	optionSets := []struct {
		name string
		opts milp.Options
	}{
		{"default", milp.Options{}},
		{"maxnodes7", milp.Options{MaxNodes: 7}},
		{"stall3-pseudocost", milp.Options{StallNodes: 3, Branching: milp.PseudoCost}},
	}
	var got bytes.Buffer
	for seed := int64(0); seed < numInstances; seed++ {
		inst := Generate(seed)
		for _, set := range optionSets {
			opts := set.opts
			opts.Workers, opts.RelGap = 1, proveGap
			sol, err := milp.NewSolver(inst.Prob.Clone(), inst.Integers).Solve(context.Background(), opts)
			if err != nil {
				t.Fatalf("%s %s: %v", inst.Name, set.name, err)
			}
			fmt.Fprintf(&got, "%s %s %v %d %d %d %.17g %.17g\n", inst.Name, set.name, sol.Status,
				sol.Nodes, sol.LPIterations, sol.Refactorizations, sol.Objective, sol.Bound)
		}
	}
	path := filepath.Join("testdata", "one-worker-tree.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d solves, golden has %d (rerun with UPDATE_GOLDEN=1 if intended)", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		g, w := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		same := len(g) == 8 && len(w) == 8 && strings.Join(g[:6], " ") == strings.Join(w[:6], " ")
		for k := 6; same && k < 8; k++ {
			a, errA := strconv.ParseFloat(g[k], 64)
			b, errB := strconv.ParseFloat(w[k], 64)
			//janus:allow(floatcmp): equal infinities (no incumbent, no bound) have no finite difference to test
			same = errA == nil && errB == nil && (a == b || math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)))
		}
		if !same {
			t.Errorf("one-worker tree moved (rerun with UPDATE_GOLDEN=1 if intended)\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
