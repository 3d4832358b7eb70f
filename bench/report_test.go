package main

import "testing"

func TestVerdict(t *testing.T) {
	latency := metricDef{Name: "event_p50_ms", Unit: "ms", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "events_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name       string
		def        metricDef
		base, cand []float64
		want       string
	}{
		{"same", latency, steady, steady, pass},
		{"worse within the bound", latency, steady, []float64{108, 109, 107, 108, 110}, pass},
		{"worse beyond the bound", latency, steady, []float64{115, 116, 114, 115, 117}, regressed},
		{"better", latency, steady, []float64{50, 51, 49, 50, 52}, pass},
		{"higher is better: a drop regresses", rate, steady, []float64{85, 86, 84, 85, 87}, regressed},
		{"higher is better: a rise passes", rate, steady, []float64{120, 121, 119, 120, 122}, pass},
		{"noisy baseline", latency, []float64{60, 100, 140, 80, 120}, steady, unresolved},
		{"noisy candidate", latency, steady, []float64{60, 100, 140, 80, 120}, unresolved},
		{"noisy but every run better", latency, []float64{200, 300, 400, 250, 350}, []float64{60, 100, 140, 80, 120}, pass},
		{"nothing to compare", latency, nil, steady, unresolved},
	} {
		if got, _ := verdict(c.def, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, worse := verdict(rate, steady, []float64{85, 86, 84, 85, 87}); !near(worse, 0.15) {
		t.Errorf("a 15%% drop reads as %v worse", worse)
	}
}
