package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestKnownValues(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Sample (n-1) standard deviation of this classic set is ~2.138.
	if sd := s.StdDev(); math.Abs(sd-2.13809) > 1e-4 {
		t.Fatalf("stddev = %v", sd)
	}
}

// TestCI95HandComputed checks the 95% confidence half-width against
// values worked out by hand with the Student-t table.
func TestCI95HandComputed(t *testing.T) {
	cases := []struct {
		vals []float64
		mean float64
		ci   float64
	}{
		// sd = sqrt(10), se = sqrt(2), t(4) = 2.776:
		// ci = 2.776 * 1.4142135... = 3.9258...
		{[]float64{10, 12, 14, 16, 18}, 14, 2.776 * math.Sqrt2},
		// sd = 1, se = 1/sqrt(3), t(2) = 4.303.
		{[]float64{1, 2, 3}, 2, 4.303 / math.Sqrt(3)},
		// Two observations: sd = sqrt(2)/sqrt(1) * |d|/sqrt(2)... simply
		// sd = |5-3|/sqrt(2) = sqrt(2), se = 1, t(1) = 12.706.
		{[]float64{3, 5}, 4, 12.706},
	}
	for _, c := range cases {
		var s Sample
		for _, v := range c.vals {
			s.Add(v)
		}
		if got := s.Mean(); math.Abs(got-c.mean) > 1e-9 {
			t.Fatalf("vals %v: mean = %v, want %v", c.vals, got, c.mean)
		}
		if got := s.CI95(); math.Abs(got-c.ci) > 1e-9 {
			t.Fatalf("vals %v: ci95 = %v, want %v", c.vals, got, c.ci)
		}
	}
}

// A single replication has no spread estimate: the CI half-width must
// degenerate to zero, so Reps=1 renders as a bare mean.
func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3.5)
	if s.Mean() != 3.5 || s.StdDev() != 0 || s.CI95() != 0 {
		t.Fatalf("single-observation stats wrong: %v %v %v", s.Mean(), s.StdDev(), s.CI95())
	}
}

func TestConstantSample(t *testing.T) {
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(7)
	}
	if s.StdDev() != 0 || s.CI95() != 0 {
		t.Fatalf("constant sample has spread: %v", s.StdDev())
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		c := tCritical(df)
		if c > prev {
			t.Fatalf("t critical not nonincreasing at df=%d: %v > %v", df, c, prev)
		}
		prev = c
	}
	if tCritical(1000) != 1.96 {
		t.Fatal("large-df critical should be 1.96")
	}
}

// TestTCriticalBoundary pins the handoff from the Student-t table to
// the normal critical value: df 30 is the last tabulated entry (2.042)
// and df 31 falls back to 1.96.
func TestTCriticalBoundary(t *testing.T) {
	if got := tCritical(30); got != 2.042 {
		t.Fatalf("tCritical(30) = %v, want 2.042", got)
	}
	if got := tCritical(31); got != 1.96 {
		t.Fatalf("tCritical(31) = %v, want 1.96", got)
	}
	// A 32-observation sample has df 31 and therefore a plain normal
	// half-width: 1.96 × StdErr.
	var s Sample
	for i := 0; i < 16; i++ {
		s.Add(0)
		s.Add(1)
	}
	if got, want := s.CI95(), 1.96*s.StdErr(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95 at df 31 = %v, want %v", got, want)
	}
}

// Property: mean lies within [min, max] and CI95 is non-negative.
func TestSampleBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Add(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-6 && m <= hi+1e-6 && s.CI95() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
