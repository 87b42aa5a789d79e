package rng

import (
	"testing"
	"time"
)

func TestSkewedDriftFollowsClock(t *testing.T) {
	g := NewSkewed(NewStream(1), SkewedConfig{
		DBSize: 1000, HotSize: 50, HotFraction: 1.0,
		DriftEvery: 30 * time.Second, DriftStep: 100,
	})
	cases := map[time.Duration]int{
		0:                0,
		29 * time.Second: 0,
		30 * time.Second: 100,
		90 * time.Second: 300,
		5 * time.Minute:  0, // 10 periods * 100 wraps mod 1000
	}
	for now, want := range cases {
		g.Advance(now)
		if got := g.base; got != want {
			t.Errorf("Advance(%v): base = %d, want %d", now, got, want)
		}
	}
	// Advance is a pure function of now, not of call history.
	g.Advance(time.Minute)
	g.Advance(30 * time.Second)
	if got := g.base; got != 100 {
		t.Errorf("re-Advance(30s): base = %d, want 100", got)
	}
}

func TestSkewedHotWindowDraws(t *testing.T) {
	g := NewSkewed(NewStream(2), SkewedConfig{
		DBSize: 1000, HotSize: 50, HotFraction: 1.0,
		DriftEvery: 30 * time.Second, DriftStep: 975, // force mod wrap
	})
	g.Advance(30 * time.Second) // base 975; window wraps to [975,1000) U [0,25)
	for i := 0; i < 500; i++ {
		id := g.Next()
		if id >= 25 && id < 975 {
			t.Fatalf("draw %d: object %d outside the wrapped hot window", i, id)
		}
	}
}

func TestSkewedColdTraffic(t *testing.T) {
	// HotFraction 0: pure Zipf over the database; theta 0: uniform.
	for name, cfg := range map[string]SkewedConfig{
		"zipf":    {DBSize: 100, ZipfTheta: 0.9},
		"uniform": {DBSize: 100},
	} {
		g := NewSkewed(NewStream(3), cfg)
		seen := map[int]bool{}
		for i := 0; i < 2000; i++ {
			id := g.Next()
			if id < 0 || id >= 100 {
				t.Fatalf("%s: object %d out of range", name, id)
			}
			seen[id] = true
		}
		if len(seen) < 50 {
			t.Errorf("%s: only %d distinct objects in 2000 draws", name, len(seen))
		}
	}
}

func TestSkewedNextSetDistinct(t *testing.T) {
	g := NewSkewed(NewStream(4), SkewedConfig{DBSize: 100, ZipfTheta: 0.9, HotSize: 10, HotFraction: 0.8})
	ids := g.NextSet(20)
	if len(ids) != 20 {
		t.Fatalf("NextSet(20) returned %d ids", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("NextSet returned duplicate object %d", id)
		}
		seen[id] = true
	}
}
