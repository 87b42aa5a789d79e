package rng

// source is a rand.Source64 whose draws equal rand.NewSource(seed)'s bit
// for bit — math/rand's additive lagged-Fibonacci generator,
// x[n] = x[n-607] + x[n-273] — without math/rand's seeding cost.
//
// math/rand fills the 607-word state by stepping the Lehmer generator
// x' = 48271·x mod (2³¹−1) 1841 times from the seed. A Lehmer generator
// jumps ahead by one multiplication, x[k] = A^k·x[0], so word i of the
// seeded state is a closed form of (seed, i) — see word. And because the
// taps are 607 and 273, draws 1…273 only read seeded words: draw j is
// word(334−j) + word(607−j). A source therefore holds no state vector
// until its 274th draw; most of a large population's streams never get
// there.
type source struct {
	seed uint32 // Lehmer x[0]: the seed as math/rand normalises it
	n    uint32 // draws made without a vector, at most rngTap
	st   *lfState
}

// lfState is math/rand's rngSource: the feedback register and its two
// cursors.
type lfState struct {
	tap, feed uint32
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	seedSkip = 21 // Lehmer steps math/rand takes before word 0
)

// lehmerPow[i] = A^(seedSkip+3i) mod M, the jump from the seed to the
// first of the three Lehmer values packed into state word i.
var lehmerPow = func() (pow [rngLen]uint32) {
	x := uint64(1)
	for k := 0; k < seedSkip; k++ {
		x = mulmod(x, lehmerA)
	}
	for i := range pow {
		pow[i] = uint32(x)
		x = mulmod(mulmod(mulmod(x, lehmerA), lehmerA), lehmerA)
	}
	return pow
}()

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2], folding the high
// bits (2³¹ ≡ 1) instead of dividing. M is prime, so the product is
// never ≡ 0 and one conditional subtraction completes the reduction.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// word returns word i of the state vector rngSource.Seed would build.
func (s *source) word(i int) int64 {
	x := mulmod(uint64(s.seed), uint64(lehmerPow[i]))
	u := int64(x) << 40
	x = mulmod(x, lehmerA)
	u ^= int64(x) << 20
	x = mulmod(x, lehmerA)
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// fill builds the state as it stands after rngTap draws: the seeded
// words, with each draw's sum stored where the generator would have
// put it.
func (s *source) fill() *lfState {
	st := &lfState{tap: rngLen - rngTap, feed: rngLen - 2*rngTap}
	for i := range st.vec {
		st.vec[i] = s.word(i)
	}
	for i := st.feed; i < st.tap; i++ {
		st.vec[i] += st.vec[i+rngTap]
	}
	s.st = st
	return st
}

func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{seed: uint32(seed)}
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *source) Uint64() uint64 {
	if s.st == nil {
		return s.early()
	}
	return s.st.step()
}

// early serves the draws made without a vector and the one that builds
// it.
func (s *source) early() uint64 {
	if s.n == rngTap {
		return s.fill().step()
	}
	s.n++
	j := int(s.n)
	return uint64(s.word(rngLen-rngTap-j) + s.word(rngLen-j))
}

// step is rngSource.Uint64.
func (st *lfState) step() uint64 {
	if st.tap == 0 {
		st.tap = rngLen
	}
	st.tap--
	if st.feed == 0 {
		st.feed = rngLen
	}
	st.feed--
	x := st.vec[st.feed] + st.vec[st.tap]
	st.vec[st.feed] = x
	return uint64(x)
}
