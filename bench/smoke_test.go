package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload end to end at the -smoke sizing: an
// untraced run for the two kinds of target (HTTP, and the runtime with a
// reader) and the traced run for all four. It checks that the runs are
// correct and complete, not what they measure.
func TestSmoke(t *testing.T) {
	bench := testBenchmark(t)
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			traceFile := filepath.Join(t.TempDir(), "trace.json")
			spec := smokeSizing(spec)
			o := options{Bench: bench, Seed: 1, Seconds: smokeSeconds, Setups: 1, DataRoot: t.TempDir(), TraceOut: traceFile}
			// The traced run drives a third of a run's events (half, in
			// the open loop) through each of its sections.
			events := spec.events(o.Seconds) / 3
			if spec.Open {
				events = spec.events(o.Seconds) / 2
			}

			if spec.Name == "churn-ans" || spec.Open {
				short := o
				short.Seconds = 1
				res, err := runEndToEnd(ctx, spec, short)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, res, bench.EndToEnd, spec.events(short.Seconds))
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; they are chosen never to be 0", name, m.Value)
					}
				}
			}

			res, err := runTraced(ctx, spec, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, bench.PerLayer, events)
			if n := res.Metrics["trace.events"].Value; int(n) != events {
				t.Errorf("traced %v events, want %d", n, events)
			}
			if n := res.Metrics["trace.diverged_events"].Value; spec.Workers == 1 && n != 0 {
				t.Errorf("the traced run diverged from the untraced one on %v events", n)
			}
			if f := res.Metrics["trace.attributed_frac"].Value; f < 0.5 || f > 1 {
				t.Errorf("named layers account for %v of traced event time", f)
			}

			raw, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ Spans []span }
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatal(err)
			}
			eventSpans := 0
			for i, s := range trace.Spans {
				if s.End < s.Start || s.Parent >= i {
					t.Fatalf("span %d %+v ends before it starts or names a later parent", i, s)
				}
				if s.Parent >= 0 && trace.Spans[s.Parent].ID != s.ID {
					t.Fatalf("span %d %+v and its parent belong to different events", i, s)
				}
				if s.Name == spEvent {
					eventSpans++
				}
			}
			if eventSpans != events {
				t.Errorf("%d event spans, want %d", eventSpans, events)
			}
		})
	}
}

func checkResult(t *testing.T, res result, defs []metricDef, events int) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted != events {
		t.Errorf("correct %v, %d attempted, %d failed; want true, %d, 0", res.Correct, res.Attempted, res.Failed, events)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: reported %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
	}
}

// Self time is a span's duration less what its children cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spEvent, Parent: -1, Start: 0, End: 100},
		{Name: spAppend, Parent: 0, Start: 60, End: 90},
		{Name: spFsync, Parent: 1, Start: 65, End: 85},
		{Name: spSolve, Parent: 0, Start: 0, End: 40},
	}
	want := []int64{30, 10, 20, 40}
	for i, got := range selfTimes(spans) {
		if int64(got) != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}
