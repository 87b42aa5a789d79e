package rng

// AccessGen generates object identifiers for a client's accesses.
// LocalizedRW is the paper's pattern; Uniform and HotCold are the
// conventional baselines used in the robustness experiments.
type AccessGen interface {
	// Next returns the next object id.
	Next() int
	// NextSet returns n distinct object ids.
	NextSet(n int) []int
}

// Uniform draws objects uniformly over the database — no locality at
// all, the worst case for client caching.
type Uniform struct {
	dbSize  int
	stream  *Stream
	scratch dedup
}

// NewUniform returns a uniform access generator.
func NewUniform(stream *Stream, dbSize int) *Uniform {
	g := new(Uniform)
	g.Init(stream, dbSize)
	return g
}

// Init makes g a uniform access generator, in place.
func (g *Uniform) Init(stream *Stream, dbSize int) {
	if dbSize <= 0 {
		panic("rng: Uniform needs dbSize > 0")
	}
	*g = Uniform{dbSize: dbSize, stream: stream}
}

// Next returns a uniform object id.
func (g *Uniform) Next() int { return g.stream.Intn(g.dbSize) }

// NextSet returns n distinct uniform ids.
func (g *Uniform) NextSet(n int) []int { return g.scratch.distinct(g, g.dbSize, n) }

// HotCold sends a fixed fraction of accesses to a globally shared hot
// set at the front of the object space (the classic "hot spot" model —
// every client contends on the same hot objects).
type HotCold struct {
	dbSize  int
	hotSize int
	hotFrac float64
	stream  *Stream
	scratch dedup
}

// NewHotCold returns a hot/cold generator: hotFrac of accesses hit the
// first hotSize objects, the rest spread uniformly over the remainder.
func NewHotCold(stream *Stream, dbSize, hotSize int, hotFrac float64) *HotCold {
	g := new(HotCold)
	g.Init(stream, dbSize, hotSize, hotFrac)
	return g
}

// Init makes g a hot/cold generator, in place.
func (g *HotCold) Init(stream *Stream, dbSize, hotSize int, hotFrac float64) {
	if dbSize <= 0 || hotSize <= 0 || hotSize > dbSize {
		panic("rng: HotCold needs 0 < hotSize <= dbSize")
	}
	*g = HotCold{dbSize: dbSize, hotSize: hotSize, hotFrac: hotFrac, stream: stream}
}

// Next returns the next object id.
func (g *HotCold) Next() int {
	if g.hotSize == g.dbSize || g.stream.Float64() < g.hotFrac {
		return g.stream.Intn(g.hotSize)
	}
	return g.hotSize + g.stream.Intn(g.dbSize-g.hotSize)
}

// NextSet returns n distinct ids.
func (g *HotCold) NextSet(n int) []int { return g.scratch.distinct(g, g.dbSize, n) }

// dedup is the reusable scratch behind NextSet: a result buffer plus,
// for large draws only, an epoch-stamped membership array. Access sets
// are small (Poisson around the configured mean), so membership is a
// linear scan over the accumulated ids up to smallDedup and the stamp
// array never materializes on the hot path — NextSet allocates nothing
// in steady state. The returned slice is owned by the generator and
// valid until its next NextSet call.
type dedup struct {
	out   []int
	stamp []uint32
	epoch uint32
}

// smallDedup is the set size below which duplicate checks linear-scan
// the output instead of touching the stamp array.
const smallDedup = 64

// distinct draws from gen until n distinct ids accumulate (clamped to
// the object space). The accept/reject decisions match the original
// map-based implementation exactly, so draw sequences are unchanged.
func (d *dedup) distinct(gen interface{ Next() int }, dbSize, n int) []int {
	if n > dbSize {
		n = dbSize
	}
	if cap(d.out) < n {
		d.out = make([]int, 0, n)
	}
	out := d.out[:0]
	if n <= smallDedup {
	small:
		for len(out) < n {
			id := gen.Next()
			for _, v := range out {
				if v == id {
					continue small
				}
			}
			out = append(out, id)
		}
		d.out = out
		return out
	}
	if len(d.stamp) < dbSize {
		d.stamp = make([]uint32, dbSize)
		d.epoch = 0
	}
	d.epoch++
	if d.epoch == 0 {
		clear(d.stamp)
		d.epoch = 1
	}
	for len(out) < n {
		id := gen.Next()
		if d.stamp[id] == d.epoch {
			continue
		}
		d.stamp[id] = d.epoch
		out = append(out, id)
	}
	d.out = out
	return out
}

// LocalizedRW generates object identifiers under the paper's Localized-RW
// pattern: a fixed fraction (75%) of a client's accesses fall uniformly in
// that client's hot region of the database, and the remainder (25%) fall
// in the rest of the database with Zipf-skewed popularity.
//
// Hot regions are contiguous, wrap around the object space, and are placed
// at offsets proportional to the client index. With region size held
// constant, growing the number of clients increases region overlap and
// therefore inter-client data contention — the driver behind the paper's
// cache-hit and blocking trends.
type LocalizedRW struct {
	dbSize     int
	regionBase int
	regionSize int
	localFrac  float64
	stream     *Stream
	// zipf ranks the objects outside the hot region; it stays zero when
	// the region covers the whole database.
	zipf    Zipf
	scratch dedup
}

// LocalizedRWConfig configures a per-client access generator.
type LocalizedRWConfig struct {
	// DBSize is the number of objects in the database.
	DBSize int
	// ClientIndex and NumClients place this client's hot region.
	ClientIndex int
	NumClients  int
	// RegionSize is the number of objects in the hot region.
	RegionSize int
	// LocalFraction is the probability an access falls in the hot
	// region (the paper uses 0.75).
	LocalFraction float64
	// ZipfTheta is the skew of remote accesses (typical database skew
	// uses ~0.8–1.0).
	ZipfTheta float64
}

// NewLocalizedRW returns a generator for one client.
func NewLocalizedRW(stream *Stream, cfg LocalizedRWConfig) *LocalizedRW {
	g := new(LocalizedRW)
	g.Init(stream, cfg)
	return g
}

// Init makes g a generator for one client, in place.
func (g *LocalizedRW) Init(stream *Stream, cfg LocalizedRWConfig) {
	if cfg.DBSize <= 0 || cfg.NumClients <= 0 {
		panic("rng: LocalizedRW needs positive DBSize and NumClients")
	}
	size := cfg.RegionSize
	if size <= 0 || size > cfg.DBSize {
		size = cfg.DBSize / 10
		if size == 0 {
			size = 1
		}
	}
	*g = LocalizedRW{
		dbSize:     cfg.DBSize,
		regionBase: (cfg.ClientIndex * cfg.DBSize / cfg.NumClients) % cfg.DBSize,
		regionSize: size,
		localFrac:  cfg.LocalFraction,
		stream:     stream,
	}
	if remote := cfg.DBSize - size; remote > 0 {
		g.zipf.Init(stream, cfg.ZipfTheta, remote)
	}
}

// RegionBase returns the first object id of the hot region.
func (g *LocalizedRW) RegionBase() int { return g.regionBase }

// RegionSize returns the size of the hot region.
func (g *LocalizedRW) RegionSize() int { return g.regionSize }

// InRegion reports whether object id lies in this client's hot region
// (accounting for wraparound).
func (g *LocalizedRW) InRegion(id int) bool {
	off := (id - g.regionBase + g.dbSize) % g.dbSize
	return off < g.regionSize
}

// Next returns the next object id to access.
func (g *LocalizedRW) Next() int {
	if !g.zipf.ready() || g.stream.Float64() < g.localFrac {
		return (g.regionBase + g.stream.Intn(g.regionSize)) % g.dbSize
	}
	// Remote access: Zipf rank over the objects outside this client's
	// region, in global id order — object 0 is the globally hottest
	// remote object for every client whose region excludes it, which is
	// what makes distinct clients contend on the same popular objects.
	rank := g.zipf.Rank()
	wrap := g.regionBase + g.regionSize - g.dbSize
	if wrap > 0 {
		// Region occupies [regionBase, dbSize) and [0, wrap); the
		// remainder is [wrap, regionBase).
		return wrap + rank
	}
	// Remainder is [0, regionBase) then [regionBase+size, dbSize).
	if rank < g.regionBase {
		return rank
	}
	return rank + g.regionSize
}

// NextSet returns n distinct object ids. When n exceeds the database size
// it is clamped.
func (g *LocalizedRW) NextSet(n int) []int { return g.scratch.distinct(g, g.dbSize, n) }

var (
	_ AccessGen = (*LocalizedRW)(nil)
	_ AccessGen = (*Uniform)(nil)
	_ AccessGen = (*HotCold)(nil)
)
