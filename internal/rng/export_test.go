package rng

// NewUniform returns a uniform access generator.
func NewUniform(stream *Stream, dbSize int) *Uniform {
	g := new(Uniform)
	g.Init(stream, dbSize)
	return g
}

// NewHotCold returns a hot/cold generator: hotFrac of accesses hit the
// first hotSize objects, the rest spread uniformly over the remainder.
func NewHotCold(stream *Stream, dbSize, hotSize int, hotFrac float64) *HotCold {
	g := new(HotCold)
	g.Init(stream, dbSize, hotSize, hotFrac)
	return g
}

// NewSkewed returns a skewed access generator.
func NewSkewed(stream *Stream, cfg SkewedConfig) *Skewed {
	g := new(Skewed)
	g.Init(stream, cfg)
	return g
}

// Derive returns a new stream derived from s with tag (DeriveInto into a
// fresh stream).
func (s *Stream) Derive(tag int64) *Stream {
	d := new(Stream)
	s.DeriveInto(d, tag)
	return d
}

// InRegion reports whether object id lies in g's hot region
// (accounting for wraparound).
func (g *LocalizedRW) InRegion(id int) bool {
	off := (id - g.regionBase + g.dbSize) % g.dbSize
	return off < g.regionSize
}
