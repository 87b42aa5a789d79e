package rng

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(7), NewStream(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := NewStream(1)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams coincide on %d of 100 draws", same)
	}
}

// DeriveInto is Derive with the derived stream's home chosen by the
// caller: for the same parent state and tag the two draw the same
// values, and take the same single draw from the parent.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	a, b := NewStream(42), NewStream(42)
	for i := 0; i < 300; i++ { // past the lazily built state vector
		a.Float64()
		b.Float64()
	}
	var streams [3]Stream // carved from an array, as a population's are
	for k, tag := range []int64{1, 7, 0x70686173} {
		boxed := a.Derive(tag)
		inPlace := &streams[k]
		b.DeriveInto(inPlace, tag)
		for i := 0; i < 1000; i++ {
			if x, y := boxed.r.Int63(), inPlace.r.Int63(); x != y {
				t.Fatalf("tag %d: draw %d is %d from Derive, %d from DeriveInto", tag, i+1, x, y)
			}
		}
	}
	if x, y := a.r.Int63(), b.r.Int63(); x != y {
		t.Fatalf("parents diverged: %d after Derive, %d after DeriveInto", x, y)
	}
}

func TestExpMean(t *testing.T) {
	s := NewStream(42)
	const n = 50000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += s.Exp(10 * time.Second)
	}
	mean := sum / n
	if mean < 9700*time.Millisecond || mean > 10300*time.Millisecond {
		t.Fatalf("exp mean = %v, want ~10s", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	s := NewStream(1)
	if d := s.Exp(0); d != 0 {
		t.Fatalf("Exp(0) = %v", d)
	}
	if d := s.Exp(-time.Second); d != 0 {
		t.Fatalf("Exp(<0) = %v", d)
	}
}

func TestExpMinFloor(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 1000; i++ {
		if d := s.ExpMin(time.Millisecond, 500*time.Microsecond); d < 500*time.Microsecond {
			t.Fatalf("ExpMin below floor: %v", d)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 4, 50} {
		s := NewStream(9)
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonNonPositive(t *testing.T) {
	s := NewStream(1)
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	s := NewStream(11)
	z := NewZipf(s, 0.9, 1000)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		r := z.Rank()
		if r < 0 || r >= 1000 {
			t.Fatalf("rank out of range: %d", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[500] {
		t.Fatalf("Zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if float64(top10)/n < 0.2 {
		t.Fatalf("top-10 mass = %v, want skewed > 0.2", float64(top10)/n)
	}
}

func TestLocalizedRWFractions(t *testing.T) {
	s := NewStream(5)
	g := NewLocalizedRW(s, LocalizedRWConfig{
		DBSize: 10000, ClientIndex: 3, NumClients: 20,
		RegionSize: 1000, LocalFraction: 0.75, ZipfTheta: 0.9,
	})
	const n = 50000
	local := 0
	for i := 0; i < n; i++ {
		id := g.Next()
		if id < 0 || id >= 10000 {
			t.Fatalf("object id out of range: %d", id)
		}
		if g.InRegion(id) {
			local++
		}
	}
	frac := float64(local) / n
	// Remote Zipf draws can also land... no: remote ids start at the
	// region end, so they never fall back inside the region. Expect ~0.75.
	if frac < 0.73 || frac > 0.77 {
		t.Fatalf("local fraction = %v, want ~0.75", frac)
	}
}

func TestLocalizedRWRegionPlacementWraps(t *testing.T) {
	s := NewStream(6)
	g := NewLocalizedRW(s, LocalizedRWConfig{
		DBSize: 100, ClientIndex: 19, NumClients: 20,
		RegionSize: 30, LocalFraction: 1.0, ZipfTheta: 0.9,
	})
	if g.regionBase != 95 {
		t.Fatalf("region base = %d, want 95", g.regionBase)
	}
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if !(id >= 95 || id < 25) {
			t.Fatalf("wrapped region produced id %d", id)
		}
	}
	if !g.InRegion(99) || !g.InRegion(0) || g.InRegion(30) {
		t.Fatal("InRegion wraparound incorrect")
	}
}

func TestLocalizedRWOverlapGrowsWithClients(t *testing.T) {
	// With fixed region size, neighbouring clients' regions overlap more
	// as the client count grows: spacing DB/N shrinks.
	mk := func(idx, n int) *LocalizedRW {
		return NewLocalizedRW(NewStream(1), LocalizedRWConfig{
			DBSize: 10000, ClientIndex: idx, NumClients: n,
			RegionSize: 1000, LocalFraction: 0.75, ZipfTheta: 0.9,
		})
	}
	overlap := func(a, b *LocalizedRW) int {
		n := 0
		for id := 0; id < 10000; id++ {
			if a.InRegion(id) && b.InRegion(id) {
				n++
			}
		}
		return n
	}
	few := overlap(mk(0, 10), mk(1, 10))
	many := overlap(mk(0, 100), mk(1, 100))
	if many <= few {
		t.Fatalf("overlap with 100 clients (%d) should exceed overlap with 10 (%d)", many, few)
	}
}

func TestNextSetDistinct(t *testing.T) {
	s := NewStream(8)
	g := NewLocalizedRW(s, LocalizedRWConfig{
		DBSize: 10000, ClientIndex: 0, NumClients: 10,
		RegionSize: 1000, LocalFraction: 0.75, ZipfTheta: 0.9,
	})
	set := g.NextSet(10)
	if len(set) != 10 {
		t.Fatalf("len = %d", len(set))
	}
	seen := map[int]struct{}{}
	for _, id := range set {
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate id %d in %v", id, set)
		}
		seen[id] = struct{}{}
	}
}

func TestNextSetClampsToDBSize(t *testing.T) {
	s := NewStream(8)
	g := NewLocalizedRW(s, LocalizedRWConfig{
		DBSize: 5, ClientIndex: 0, NumClients: 1,
		RegionSize: 5, LocalFraction: 1, ZipfTheta: 0.9,
	})
	if got := len(g.NextSet(50)); got != 5 {
		t.Fatalf("clamped set size = %d, want 5", got)
	}
}

// Property: every id from Next is in [0, DBSize) for arbitrary geometry.
func TestLocalizedRWRangeProperty(t *testing.T) {
	f := func(seed int64, idx, n uint8, size uint16) bool {
		clients := int(n%50) + 1
		db := int(size%5000) + 10
		g := NewLocalizedRW(NewStream(seed), LocalizedRWConfig{
			DBSize: db, ClientIndex: int(idx) % clients, NumClients: clients,
			RegionSize: db / 10, LocalFraction: 0.75, ZipfTheta: 0.9,
		})
		for i := 0; i < 200; i++ {
			if id := g.Next(); id < 0 || id >= db {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewUniform(NewStream(4), 100)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		id := g.Next()
		if id < 0 || id >= 100 {
			t.Fatalf("id out of range: %d", id)
		}
		counts[id]++
	}
	for id, n := range counts {
		if n < 100 || n > 320 {
			t.Fatalf("uniformity broken at %d: %d draws", id, n)
		}
	}
	set := g.NextSet(10)
	if len(set) != 10 {
		t.Fatalf("set size = %d", len(set))
	}
}

func TestHotColdFractions(t *testing.T) {
	g := NewHotCold(NewStream(5), 1000, 50, 0.8)
	hot := 0
	const n = 50000
	for i := 0; i < n; i++ {
		id := g.Next()
		if id < 0 || id >= 1000 {
			t.Fatalf("id out of range: %d", id)
		}
		if id < 50 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.78 || frac > 0.82 {
		t.Fatalf("hot fraction = %v, want ~0.8", frac)
	}
}

func TestHotColdDegenerateAllHot(t *testing.T) {
	g := NewHotCold(NewStream(6), 10, 10, 0.5)
	for i := 0; i < 100; i++ {
		if id := g.Next(); id < 0 || id >= 10 {
			t.Fatalf("id out of range: %d", id)
		}
	}
}
