package rng

import "time"

// Skewed draws objects with Zipf-skewed global popularity and an
// optional drifting hot spot, the access model scenario workloads use
// for contention studies: a HotFraction of accesses fall uniformly in a
// hot window of HotSize objects whose base rotates by DriftStep every
// DriftEvery of simulated time, and the remainder are Zipf(theta) over
// the whole database (theta 0 = uniform).
//
// The generator is clocked externally: callers advance it to the
// current simulated time via Advance before drawing, so the drift
// schedule is a pure function of the simulated clock, never of
// wall-clock or draw counts.
type Skewed struct {
	dbSize  int
	hotSize int
	hotFrac float64
	every   time.Duration
	step    int

	stream *Stream
	zipf   Zipf // zero at theta 0: cold accesses are uniform

	base    int // current hot-window base object id
	scratch dedup
}

// SkewedConfig parameterizes a Skewed generator.
type SkewedConfig struct {
	// DBSize is the number of objects in the database.
	DBSize int
	// ZipfTheta is the skew of cold accesses over the whole database
	// (0 = uniform).
	ZipfTheta float64
	// HotSize and HotFraction shape the hot window (HotFraction 0
	// disables it).
	HotSize     int
	HotFraction float64
	// DriftEvery and DriftStep rotate the hot window: every DriftEvery
	// of simulated time the window base advances by DriftStep objects
	// (DriftEvery 0 = static).
	DriftEvery time.Duration
	DriftStep  int
}

// Init makes g a skewed access generator, in place.
func (g *Skewed) Init(stream *Stream, cfg SkewedConfig) {
	if cfg.DBSize <= 0 {
		panic("rng: Skewed needs DBSize > 0")
	}
	if cfg.HotFraction > 0 && (cfg.HotSize <= 0 || cfg.HotSize > cfg.DBSize) {
		panic("rng: Skewed needs 0 < HotSize <= DBSize when HotFraction is set")
	}
	*g = Skewed{
		dbSize:  cfg.DBSize,
		hotSize: cfg.HotSize,
		hotFrac: cfg.HotFraction,
		every:   cfg.DriftEvery,
		step:    cfg.DriftStep,
		stream:  stream,
	}
	if cfg.ZipfTheta > 0 {
		g.zipf.Init(stream, cfg.ZipfTheta, cfg.DBSize)
	}
}

// Advance moves the drift schedule to simulated time now. The hot
// window's base is step * floor(now/every) mod dbSize — a deterministic
// function of now, so replaying the same arrival times reproduces the
// same windows.
func (g *Skewed) Advance(now time.Duration) {
	if g.every <= 0 {
		return
	}
	periods := int64(now / g.every)
	g.base = int((periods * int64(g.step)) % int64(g.dbSize))
}

// Next returns the next object id.
func (g *Skewed) Next() int {
	if g.hotFrac > 0 && g.stream.Float64() < g.hotFrac {
		return (g.base + g.stream.Intn(g.hotSize)) % g.dbSize
	}
	if g.zipf.ready() {
		return g.zipf.Rank()
	}
	return g.stream.Intn(g.dbSize)
}

// FillSet returns n distinct object ids in buf's array.
func (g *Skewed) FillSet(buf []int, n int) []int { return g.scratch.distinct(g, g.dbSize, n, buf) }

// NextSet returns n distinct object ids.
func (g *Skewed) NextSet(n int) []int { return g.scratch.next(g, g.dbSize, n) }

var _ AccessGen = (*Skewed)(nil)
