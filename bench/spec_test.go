package main

import (
	"regexp"
	"testing"
)

func testBenchmark(t *testing.T) benchmark {
	t.Helper()
	b, err := loadBenchmark("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json is refused by the driver, before a single run, when it is
// outside the contract's limits; the ones a later edit could cross are
// checked here. That the program computes exactly the declared metrics is
// newResult's check, which TestSmoke runs into.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	b := testBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", b.RunSeconds)
	}
	for i, w := range b.Workloads {
		once(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
		if n := workloads[i].events(float64(b.RunSeconds)); n < 100 {
			t.Errorf("%s: a run times %d events; the 90th percentile wants ten beyond it", w.Name, n)
		}
	}
	sawSetup := false
	for _, d := range b.EndToEnd {
		once(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range b.PerLayer {
		once(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}
