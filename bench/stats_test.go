package main

import (
	"math"
	"math/rand"
	"testing"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{50, 30}, {95, 50}, {100, 50}, {20, 10}, {21, 20}, {0, 10}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 100 samples 1..100: p95 has five samples beyond it.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 95); !near(got, 95) {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
}

func TestMedianOfReps(t *testing.T) {
	if got := median([]float64{3, 1, 2}); !near(got, 2) {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of four = %v", got)
	}
	s := newSeries("ms", []float64{3, 1, 2})
	if !near(s.Median, 2) || !near(s.Min, 1) || !near(s.Max, 3) {
		t.Errorf("series = %+v", s)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{81, 106, 111, 119, 128, 138, 141, 144, 181, 261}, 109.75, 153.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{81, 106, 111, 119, 128, 138, 141, 144, 181, 261}); !near(got, (153.25-109.75)/133) {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}
