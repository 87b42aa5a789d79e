package rng

import "testing"

// TestNextSetZeroAlloc pins the access-set hot path at zero
// allocations: the seen-set and result buffer are generator-owned
// scratch, not per-draw garbage.
func TestNextSetZeroAlloc(t *testing.T) {
	gens := map[string]AccessGen{
		"localized": NewLocalizedRW(NewStream(3), LocalizedRWConfig{
			DBSize: 2000, ClientIndex: 1, NumClients: 8, RegionSize: 200,
			LocalFraction: 0.75, ZipfTheta: 0.9,
		}),
		"uniform": NewUniform(NewStream(4), 2000),
		"hotcold": NewHotCold(NewStream(5), 2000, 100, 0.8),
		"skewed": NewSkewed(NewStream(6), SkewedConfig{
			DBSize: 2000, ZipfTheta: 0.9, HotSize: 100, HotFraction: 0.5,
		}),
	}
	for name, g := range gens {
		// Warm the scratch and take the stream past its one vector fill.
		for i := 0; i < 40; i++ {
			g.NextSet(8)
		}
		if n := testing.AllocsPerRun(200, func() { g.NextSet(8) }); n != 0 {
			t.Errorf("%s: NextSet allocates %v per run, want 0", name, n)
		}
		// A caller's buffer long enough is filled in place: the one a
		// system's transaction maker hands every generator.
		buf := make([]int, 0, 8)
		if n := testing.AllocsPerRun(200, func() {
			if got := g.FillSet(buf, 8); len(got) != 8 || &got[0] != &buf[:1][0] {
				panic("FillSet left the caller's buffer")
			}
		}); n != 0 {
			t.Errorf("%s: FillSet allocates %v per run, want 0", name, n)
		}
	}
}

// TestNextSetLargeDraw exercises the epoch-stamped path (> smallDedup)
// and its epoch-wrap reset.
func TestNextSetLargeDraw(t *testing.T) {
	g := NewUniform(NewStream(8), 500)
	for round := 0; round < 3; round++ {
		ids := g.NextSet(smallDedup + 40)
		if len(ids) != smallDedup+40 {
			t.Fatalf("round %d: got %d ids", round, len(ids))
		}
		seen := map[int]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("round %d: duplicate id %d", round, id)
			}
			seen[id] = true
		}
	}
	// Force the epoch counter to wrap and make sure stale stamps are
	// cleared rather than misread as current.
	g.scratch.epoch = ^uint32(0)
	ids := g.NextSet(smallDedup + 1)
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate id after epoch wrap")
		}
		seen[id] = true
	}
}
