// Package rng provides seeded random streams and the access-pattern
// distributions used by the experiments: exponential durations, Poisson
// arrival processes, Zipf object popularity, and the paper's Localized-RW
// pattern (75% uniform over a per-client hot region, 25% Zipf over the
// rest of the database).
//
// Every component of the simulation draws from its own Stream so that
// adding or removing one consumer does not perturb the draws seen by
// another — a requirement for meaningful A/B comparisons between system
// configurations that share a workload seed.
package rng

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Stream is a deterministic source of random variates. Its draws are
// those of rand.New(rand.NewSource(seed)), which every golden pins, but
// it is a few dozen bytes until its 274th draw (see source). The
// rand.Rand is held by value and reads src through a pointer into the
// same struct, so a stream is one heap object — or no object of its own
// when it is a field or an array element. A Stream points at its own
// src: it is initialised where it will live (Init, DeriveInto) and
// never copied afterwards.
type Stream struct {
	r   rand.Rand
	src source
}

// NewStream returns a stream seeded with seed.
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.Init(seed)
	return s
}

// Init seeds s with seed, in place.
func (s *Stream) Init(seed int64) {
	s.src.Seed(seed)
	s.r = *rand.New(&s.src)
}

// Derive returns a new independent stream whose seed combines the parent
// seed-derived state with tag. Use it to give each client or component its
// own stream from one experiment seed.
func (s *Stream) Derive(tag int64) *Stream {
	d := new(Stream)
	s.DeriveInto(d, tag)
	return d
}

// DeriveInto is Derive into dst, where the derived stream will live.
func (s *Stream) DeriveInto(dst *Stream, tag int64) {
	// SplitMix64-style mixing of the parent's next value with the tag.
	z := uint64(s.r.Int63()) ^ (uint64(tag) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	dst.Init(int64(z ^ (z >> 31)))
}

// Float64 returns a uniform variate in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Exp returns an exponentially distributed duration with the given mean.
// A non-positive mean returns zero.
func (s *Stream) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(s.r.ExpFloat64() * float64(mean))
}

// ExpMin returns an exponential duration with the given mean, but never
// below floor. The paper's transaction lengths and deadlines are
// exponential; a small floor avoids degenerate zero-length work.
func (s *Stream) ExpMin(mean, floor time.Duration) time.Duration {
	d := s.Exp(mean)
	if d < floor {
		return floor
	}
	return d
}

// Poisson returns a Poisson-distributed count with the given mean, using
// inversion for small means and a normal approximation above 30.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(s.r.NormFloat64()*math.Sqrt(mean) + mean))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Zipf draws ranks in [0,n) with P(k) proportional to 1/(k+1)^theta.
// Unlike math/rand's Zipf it supports the 0 < theta ≤ 1 exponents common
// in the database access-skew literature (e.g. the 80-20 rule at
// theta ≈ 0.86) by inverse-CDF sampling over a precomputed table.
type Zipf struct {
	stream *Stream
	z      *rand.Zipf
	cdf    []float64
}

// cdfCache memoizes Zipf CDF tables by (theta, n). Every client in every
// replication builds the same table (the paper's workloads share one
// theta and database size), and the O(n) math.Pow loop dominated sampler
// construction. The tables are immutable once published, so sharing one
// slice across samplers — including concurrently running experiment
// cells — is safe, and memoization returns bit-identical floats, so
// sampling is unchanged.
var cdfCache sync.Map // zipfKey -> []float64

type zipfKey struct {
	theta float64
	n     int
}

func zipfCDF(theta float64, n int) []float64 {
	key := zipfKey{theta: theta, n: n}
	if v, ok := cdfCache.Load(key); ok {
		return v.([]float64)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	// A concurrent builder may have published first; use its table so
	// all samplers share one slice.
	if v, loaded := cdfCache.LoadOrStore(key, cdf); loaded {
		return v.([]float64)
	}
	return cdf
}

// NewZipf returns a Zipf sampler over n ranks with exponent theta > 0.
func NewZipf(stream *Stream, theta float64, n int) *Zipf {
	z := new(Zipf)
	z.Init(stream, theta, n)
	return z
}

// Init makes z a Zipf sampler over n ranks with exponent theta > 0, in
// place. The zero Zipf is no sampler (see ready).
func (z *Zipf) Init(stream *Stream, theta float64, n int) {
	if n <= 0 {
		panic("rng: Zipf needs n > 0")
	}
	if theta <= 0 {
		panic("rng: Zipf needs theta > 0")
	}
	*z = Zipf{stream: stream}
	if theta > 1 {
		z.z = rand.NewZipf(&stream.r, theta, 1, uint64(n-1))
	} else {
		z.cdf = zipfCDF(theta, n)
	}
}

// ready reports whether z was initialised: a generator holds its Zipf
// by value and leaves it zero when it has no skewed range to draw from.
func (z *Zipf) ready() bool { return z.stream != nil }

// Rank returns a rank in [0,n), with rank 0 the most popular.
func (z *Zipf) Rank() int {
	if z.z != nil {
		return int(z.z.Uint64())
	}
	u := z.stream.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
