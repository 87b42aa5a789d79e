package rng

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// matchSource draws n values from a fresh source and from
// rand.NewSource(seed), calling Int63 where the matching bit of mix is
// set and Uint64 elsewhere, and reports the first difference.
func matchSource(t testing.TB, seed int64, n int, mix uint64) {
	t.Helper()
	var got source
	got.Seed(seed)
	matchDraws(t, &got, rand.NewSource(seed).(rand.Source64), seed, n, mix)
}

func matchDraws(t testing.TB, got *source, want rand.Source64, seed int64, n int, mix uint64) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if mix>>(i%64)&1 == 1 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand gives %d", seed, i, g, w)
			}
		} else if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand gives %d", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand: every golden in the repository pins
// math/rand's draw sequence, so source must reproduce it exactly — in
// the vector-free window (draws 1…273), across the fill at draw 274,
// where the feed cursor wraps (334) and where the tap cursor does (607)
// — at every seed math/rand treats specially.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = lehmerM
	seeds := []int64{
		0, 1, -1, 2, 7, 42, 89482311, -89482311,
		m - 1, m, m + 1, -m, -m - 1, 1 - m, 2 * m, -2 * m, 3*m + 5, -3*m - 5, 1 << 31, 1 << 32,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		matchSource(t, seed, 2500, 0x5a5a_0ff0_c3c3_9669^uint64(seed))
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(300), uint64(0))
	f.Add(int64(0), uint16(700), ^uint64(0))
	f.Add(int64(math.MinInt64), uint16(2000), uint64(0xaaaa_aaaa_aaaa_aaaa))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mix uint64) {
		matchSource(t, seed, int(n%4096), mix)
	})
}

// TestSourceReseed: Seed in the middle of a sequence — before, at and
// after the fill — must start the new seed's sequence from its first
// draw and drop the old vector.
func TestSourceReseed(t *testing.T) {
	for _, after := range []int{0, 10, rngTap, rngTap + 1, 700} {
		var s source
		s.Seed(5)
		for i := 0; i < after; i++ {
			s.Uint64()
		}
		s.Seed(-77)
		if s.st != nil {
			t.Fatalf("Seed after %d draws kept the old state vector", after)
		}
		matchDraws(t, &s, rand.NewSource(-77).(rand.Source64), -77, 1000, 0xf0f0)
	}
}

// TestStreamMatchesMathRand checks the variates the simulator draws,
// through rand.Rand on top of source, against rand.Rand on top of
// math/rand's own source, including the derived stream and the theta>1
// Zipf that holds the stream's rand.Rand.
func TestStreamMatchesMathRand(t *testing.T) {
	const mean = 3 * time.Second
	for _, seed := range []int64{1, 0, -9, math.MaxInt64} {
		s, ref := NewStream(seed), rand.New(rand.NewSource(seed))
		z, refZ := NewZipf(s, 1.2, 5000), rand.NewZipf(ref, 1.2, 1, 4999)
		for i := 0; i < 400; i++ {
			if g, w := s.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d round %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := s.Intn(1000), ref.Intn(1000); g != w {
				t.Fatalf("seed %d round %d: Intn = %v, want %v", seed, i, g, w)
			}
			if g, w := s.Exp(mean), time.Duration(ref.ExpFloat64()*float64(mean)); g != w {
				t.Fatalf("seed %d round %d: Exp = %v, want %v", seed, i, g, w)
			}
			// Poisson above 30 is one NormFloat64.
			if g, w := s.Poisson(100), int(math.Round(ref.NormFloat64()*10+100)); g != w {
				t.Fatalf("seed %d round %d: Poisson = %v, want %v", seed, i, g, w)
			}
			g, w := s.Perm(5), ref.Perm(5)
			for k := range w {
				if g[k] != w[k] {
					t.Fatalf("seed %d round %d: Perm = %v, want %v", seed, i, g, w)
				}
			}
			if g, w := z.Rank(), int(refZ.Uint64()); g != w {
				t.Fatalf("seed %d round %d: Zipf rank = %v, want %v", seed, i, g, w)
			}
			if i%50 != 0 {
				continue
			}
			// Derive takes one Int63 of the parent and mixes in the tag.
			child := s.Derive(int64(i))
			x := uint64(ref.Int63()) ^ (uint64(i) * 0x9e3779b97f4a7c15)
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			x = (x ^ (x >> 27)) * 0x94d049bb133111eb
			refChild := rand.New(rand.NewSource(int64(x ^ (x >> 31))))
			for k := 0; k < 300; k++ {
				if g, w := child.Float64(), refChild.Float64(); g != w {
					t.Fatalf("seed %d round %d: derived draw %d = %v, want %v", seed, i, k, g, w)
				}
			}
		}
	}
}

// TestNewStreamLazy: a stream holds no state vector until its 274th
// draw — the property that keeps a million mostly idle clients small.
func TestNewStreamLazy(t *testing.T) {
	s := NewStream(1)
	for i := 1; i <= rngTap; i++ {
		s.Float64()
		if s.src.st != nil {
			t.Fatalf("state vector allocated at draw %d, want none before draw %d", i, rngTap+1)
		}
	}
	s.Float64()
	if s.src.st == nil {
		t.Fatalf("no state vector after draw %d", rngTap+1)
	}
}

func TestStreamAllocs(t *testing.T) {
	sparse := NewStream(3)
	sparse.Float64()
	// 100 runs and AllocsPerRun's own warm-up stay inside the window.
	if n := testing.AllocsPerRun(100, func() { sparse.Float64() }); n != 0 {
		t.Errorf("vector-free draw allocates %v per run, want 0", n)
	}
	dense := NewStream(4)
	for i := 0; i <= rngTap; i++ {
		dense.Float64()
	}
	if n := testing.AllocsPerRun(1000, func() { dense.Float64() }); n != 0 {
		t.Errorf("steady-state draw allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkStream = NewStream(5); sinkStream.Float64() }); n != 1 {
		t.Errorf("NewStream + first draw allocates %v times, want 1 (the Stream holds its rand.Rand by value)", n)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkStream = NewStream(int64(i))
		sink += sinkStream.Intn(1 << 20)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > 64 {
		t.Errorf("NewStream + first draw allocates %d B, want <= 64", got)
	}
}

var (
	sink       int
	sinkStream *Stream // keeps a stream under test on the heap
)

// BenchmarkStreamFirstDraw is what every client pays three times at
// set-up: a new stream and one variate from it.
func BenchmarkStreamFirstDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += NewStream(int64(i)).Intn(1 << 20)
	}
}

// BenchmarkStreamSparseDraw is a draw inside the vector-free window.
func BenchmarkStreamSparseDraw(b *testing.B) {
	b.ReportAllocs()
	s := NewStream(1)
	for i := 0; i < b.N; i++ {
		if i%rngTap == 0 {
			s.src.Seed(int64(i))
		}
		sink += int(s.src.Uint64())
	}
}

// BenchmarkStreamDenseDraw is a steady-state draw from the vector.
func BenchmarkStreamDenseDraw(b *testing.B) {
	b.ReportAllocs()
	s := NewStream(1)
	for i := 0; i <= rngTap; i++ {
		s.src.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += int(s.src.Uint64())
	}
}

// BenchmarkStreamFill is the one-off cost of draw 274: allocating and
// computing the 607-word vector.
func BenchmarkStreamFill(b *testing.B) {
	b.ReportAllocs()
	s := NewStream(1)
	s.src.n = rngTap
	for i := 0; i < b.N; i++ {
		s.src.st = nil
		sink += int(s.src.Uint64())
	}
}
