package rng

// AccessGen generates object identifiers for a client's accesses.
// LocalizedRW is the paper's pattern; Uniform and HotCold are the
// conventional baselines used in the robustness experiments.
type AccessGen interface {
	// Next returns the next object id.
	Next() int
	// FillSet returns n distinct object ids (fewer when the database
	// has fewer objects) in buf's array, made anew when its capacity is
	// short: the caller owns the buffer.
	FillSet(buf []int, n int) []int
	// NextSet is FillSet into a buffer the generator keeps, valid until
	// its next NextSet call.
	NextSet(n int) []int
}

// Uniform draws objects uniformly over the database — no locality at
// all, the worst case for client caching.
type Uniform struct {
	dbSize  int
	stream  *Stream
	scratch dedup
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

// FillSet returns n distinct uniform ids in buf's array.
func (g *Uniform) FillSet(buf []int, n int) []int { return g.scratch.distinct(g, g.dbSize, n, buf) }

// NextSet returns n distinct uniform ids.
func (g *Uniform) NextSet(n int) []int { return g.scratch.next(g, g.dbSize, n) }

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

// FillSet returns n distinct ids in buf's array.
func (g *HotCold) FillSet(buf []int, n int) []int { return g.scratch.distinct(g, g.dbSize, n, buf) }

// NextSet returns n distinct ids.
func (g *HotCold) NextSet(n int) []int { return g.scratch.next(g, g.dbSize, n) }

// dedup is the reusable scratch behind FillSet: for large draws only, an
// epoch-stamped membership array. Access sets are small (Poisson around
// the configured mean), so membership is a linear scan over the
// accumulated ids up to smallDedup and the stamp array never
// materializes on the hot path — FillSet into a buffer long enough
// allocates nothing. out is NextSet's buffer, made by its first call:
// a system's generators fill the buffer of its txn.Maker instead.
type dedup struct {
	out   []int
	stamp []uint32
	epoch uint32
}

// smallDedup is the set size below which duplicate checks linear-scan
// the output instead of touching the stamp array.
const smallDedup = 64

// next is NextSet: distinct into the generator's own buffer.
func (d *dedup) next(gen interface{ Next() int }, dbSize, n int) []int {
	d.out = d.distinct(gen, dbSize, n, d.out)
	return d.out
}

// distinct draws from gen until n distinct ids accumulate (clamped to
// the object space) in out's array, or a new one when it is too short.
// The accept/reject decisions match the original map-based
// implementation exactly, so draw sequences are unchanged.
func (d *dedup) distinct(gen interface{ Next() int }, dbSize, n int, out []int) []int {
	if n > dbSize {
		n = dbSize
	}
	if cap(out) < n {
		out = make([]int, 0, n)
	}
	out = out[:0]
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

// FillSet returns n distinct object ids in buf's array. When n exceeds
// the database size it is clamped.
func (g *LocalizedRW) FillSet(buf []int, n int) []int { return g.scratch.distinct(g, g.dbSize, n, buf) }

// NextSet returns n distinct object ids. When n exceeds the database size
// it is clamped.
func (g *LocalizedRW) NextSet(n int) []int { return g.scratch.next(g, g.dbSize, n) }

var (
	_ AccessGen = (*LocalizedRW)(nil)
	_ AccessGen = (*Uniform)(nil)
	_ AccessGen = (*HotCold)(nil)
)
