package labels

import (
	"testing"
	"testing/quick"
)

func TestDefaultSchemeDefinesAllMetrics(t *testing.T) {
	s := Default()
	for _, m := range []Metric{MinBandwidth, MaxBandwidth, Latency, Jitter} {
		if got := s.Labels(m); len(got) != 3 {
			t.Errorf("Labels(%s) = %v, want 3 labels", m, got)
		}
	}
	if got := len(s.Metrics()); got != 4 {
		t.Errorf("Metrics() returned %d metrics, want 4", got)
	}
}

func TestDefineValidation(t *testing.T) {
	s := NewScheme()
	if err := s.Define(MinBandwidth, nil, nil); err == nil {
		t.Error("Define with empty order: want error")
	}
	if err := s.Define(MinBandwidth, []Label{"a", "b"}, []float64{1}); err == nil {
		t.Error("Define with mismatched lengths: want error")
	}
	if err := s.Define(MinBandwidth, []Label{"a", "a"}, []float64{1, 2}); err == nil {
		t.Error("Define with duplicate labels: want error")
	}
	if err := s.Define(MinBandwidth, []Label{"a", ""}, []float64{1, 2}); err == nil {
		t.Error("Define with empty label: want error")
	}
	if err := s.Define(MinBandwidth, []Label{"a", "b"}, []float64{1, 2}); err != nil {
		t.Errorf("valid Define: %v", err)
	}
}

func TestDefineReplacesPrevious(t *testing.T) {
	s := NewScheme()
	if err := s.Define(MinBandwidth, []Label{"x"}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Define(MinBandwidth, []Label{"y", "z"}, []float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LevelOf(MinBandwidth, "x"); err == nil {
		t.Error("old label x should no longer be defined")
	}
	lvl, err := s.LevelOf(MinBandwidth, "z")
	if err != nil || lvl != 1 {
		t.Errorf("LevelOf(z) = %d, %v; want 1, nil", lvl, err)
	}
}

func TestLevelOrdering(t *testing.T) {
	s := Default()
	lo, err := s.LevelOf(MinBandwidth, "low")
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.LevelOf(MinBandwidth, "high")
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Errorf("level(low)=%d should be < level(high)=%d", lo, hi)
	}
}

func TestValueResolution(t *testing.T) {
	s := Default()
	v, err := s.Value(MinBandwidth, "medium")
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Errorf("Value(min-bw, medium) = %v, want 100", v)
	}
	if _, err := s.Value(MinBandwidth, "nope"); err == nil {
		t.Error("Value of undefined label: want error")
	}
	if _, err := s.Value(Metric("nope"), "low"); err == nil {
		t.Error("Value of undefined metric: want error")
	}
}

func TestBetterAndMax(t *testing.T) {
	s := Default()
	better, err := s.Better(MinBandwidth, "high", "low")
	if err != nil || !better {
		t.Errorf("Better(high, low) = %v, %v; want true, nil", better, err)
	}
	better, err = s.Better(MinBandwidth, "low", "low")
	if err != nil || better {
		t.Errorf("Better(low, low) = %v, %v; want false, nil", better, err)
	}
	// §4.1/Fig 8a: composing min-bw medium with min-bw low picks medium.
	got, err := s.Max(MinBandwidth, "low", "medium")
	if err != nil || got != "medium" {
		t.Errorf("Max(low, medium) = %q, %v; want medium", got, err)
	}
	got, err = s.Max(MinBandwidth, "medium", "low")
	if err != nil || got != "medium" {
		t.Errorf("Max(medium, low) = %q, %v; want medium", got, err)
	}
}

func TestMaxUndefinedLabel(t *testing.T) {
	s := Default()
	if _, err := s.Max(MinBandwidth, "low", "bogus"); err == nil {
		t.Error("Max with undefined label: want error")
	}
}

func TestCompatibleMinMax(t *testing.T) {
	s := Default()
	// Fig 8b: min-bw medium (100) with max-bw medium (100) coexist.
	ok, err := s.Compatible("medium", "medium")
	if err != nil || !ok {
		t.Errorf("Compatible(medium, medium) = %v, %v; want true", ok, err)
	}
	// min-bw high (500) cannot coexist with max-bw low (50): the paper's §2.1
	// conflict example (min 100 vs max 50) scaled to default labels.
	ok, err = s.Compatible("high", "low")
	if err != nil || ok {
		t.Errorf("Compatible(high, low) = %v, %v; want false", ok, err)
	}
}

// Property: Max is commutative, idempotent and always returns one of its
// arguments, for every pair of labels defined on the default scheme.
func TestMaxProperties(t *testing.T) {
	s := Default()
	ls := s.Labels(MinBandwidth)
	pick := func(i uint8) Label { return ls[int(i)%len(ls)] }
	prop := func(i, j uint8) bool {
		a, b := pick(i), pick(j)
		ab, err1 := s.Max(MinBandwidth, a, b)
		ba, err2 := s.Max(MinBandwidth, b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if ab != ba {
			return false
		}
		if ab != a && ab != b {
			return false
		}
		aa, err := s.Max(MinBandwidth, a, a)
		return err == nil && aa == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: levels are consistent with Better for all label pairs.
func TestBetterMatchesLevels(t *testing.T) {
	s := Default()
	for _, m := range s.Metrics() {
		ls := s.Labels(m)
		for i, a := range ls {
			for j, b := range ls {
				better, err := s.Better(m, a, b)
				if err != nil {
					t.Fatalf("Better(%s, %s, %s): %v", m, a, b, err)
				}
				if want := i > j; better != want {
					t.Errorf("Better(%s, %s, %s) = %v, want %v", m, a, b, better, want)
				}
			}
		}
	}
}
