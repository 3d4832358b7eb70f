package milp

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"janus/internal/lp"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error; "" means valid
	}{
		{"zero value is valid", Options{}, ""},
		{"fully specified valid", Options{MaxNodes: 100, TimeLimit: time.Second, RelGap: 1e-4, StallNodes: 10, Workers: 2}, ""},
		{"negative node limit", Options{MaxNodes: -1}, "MaxNodes"},
		{"negative time limit", Options{TimeLimit: -time.Second}, "TimeLimit"},
		{"negative gap", Options{RelGap: -1e-6}, "RelGap"},
		{"NaN gap", Options{RelGap: math.NaN()}, "RelGap"},
		{"negative stall window", Options{StallNodes: -5}, "StallNodes"},
		{"negative workers", Options{Workers: -2}, "Workers"},
		{"NaN MIP start", Options{MIPStart: map[int]float64{0: math.NaN()}}, "MIPStart"},
		{"infinite MIP start", Options{MIPStart: map[int]float64{1: math.Inf(1)}}, "MIPStart"},
		{"negative priority index", Options{BranchPriority: map[int]int{-3: 1}}, "BranchPriority"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %q, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestOptionsValidateJoinsAllProblems(t *testing.T) {
	err := Options{MaxNodes: -1, RelGap: -2, Workers: -3}.Validate()
	if err == nil {
		t.Fatal("want error")
	}
	for _, field := range []string{"MaxNodes", "RelGap", "Workers"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not mention %s", err, field)
		}
	}
}

// Solve must reject nonsense options instead of silently misbehaving.
func TestSolveRejectsInvalidOptions(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(1)
	if _, err := p.AddConstraint(lp.LE, 1, []lp.Term{{Var: a, Coef: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{MaxNodes: -10},
		{RelGap: math.NaN()},
		{Workers: -1},
		{StallNodes: -1},
		{TimeLimit: -time.Minute},
	} {
		if _, err := NewSolver(p, []int{a}).Solve(context.Background(), opts); err == nil {
			t.Errorf("Solve(%+v) accepted invalid options", opts)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxNodes != 200000 {
		t.Errorf("MaxNodes default = %d, want 200000", o.MaxNodes)
	}
	if o.RelGap != 1e-6 { //janus:allow(floatcmp): default set from exact literal
		t.Errorf("RelGap default = %v, want 1e-6", o.RelGap)
	}
	if o.Workers < 1 {
		t.Errorf("Workers default = %d, want >= 1 (GOMAXPROCS)", o.Workers)
	}
	// Explicit values survive.
	o = Options{MaxNodes: 7, RelGap: 0.5, Workers: 3}.withDefaults()
	if o.MaxNodes != 7 || o.RelGap != 0.5 || o.Workers != 3 { //janus:allow(floatcmp): values set from exact literals
		t.Errorf("withDefaults clobbered explicit values: %+v", o)
	}
}
