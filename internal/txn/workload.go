package txn

import (
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/rng"
)

// WorkloadConfig shapes one client's transaction stream (Table 1).
type WorkloadConfig struct {
	// MeanInterArrival is the mean of the Poisson arrival process.
	MeanInterArrival time.Duration
	// MeanLength is the mean (exponential) prescribed execution time.
	MeanLength time.Duration
	// MinLength floors the exponential draw.
	MinLength time.Duration
	// MeanSlack is the mean deadline offset beyond the arrival time
	// (Table 1's "average transaction deadline"). Deadlines are set to
	// arrival + length + slack where slack is exponential with mean
	// MeanSlack − MeanLength, so an unobstructed transaction always
	// makes its deadline and every miss is system-induced (queueing,
	// blocking, or data-shipping delay).
	MeanSlack time.Duration
	// MinSlack floors the slack draw.
	MinSlack time.Duration
	// IndependentDeadlines draws the deadline offset independently of
	// the execution length (the literal reading of Table 1) instead of
	// the default arrival + length + slack.
	IndependentDeadlines bool
	// MeanObjects is the mean number of distinct objects accessed.
	MeanObjects int
	// UpdateFraction is the probability that an individual access is an
	// update (the paper's "percentage of updates").
	UpdateFraction float64
	// DecomposableFraction is the share of transactions that may be
	// decomposed (the paper uses 10%).
	DecomposableFraction float64
	// Access generates object ids (Localized-RW in the paper's
	// experiments; Uniform and HotCold for the robustness sweeps).
	Access rng.AccessGen
	// Arrivals, when non-nil, replaces the default closed-loop arrival
	// process (scenario workloads install phased open-loop, burst,
	// diurnal, and flash-crowd processes here). Nil preserves the
	// original draw sequence exactly.
	Arrivals ArrivalProcess
}

// Source produces a client's transaction stream; *Generator is the only
// implementation, but the interface keeps the client decoupled from how
// the stream is parameterized.
type Source interface {
	// NextArrival returns the absolute virtual time of the next
	// transaction.
	NextArrival() time.Duration
	// Next produces the transaction arriving at NextArrival and
	// advances the arrival process.
	Next() *Transaction
}

// Generator produces one client's transaction stream deterministically
// from its stream.
type Generator struct {
	cfg     WorkloadConfig
	stream  *rng.Stream
	origin  netsim.SiteID
	nextID  func() ID
	nextAt  time.Duration
	advance func(time.Duration)
}

// NewGenerator returns a generator for origin. nextID must hand out
// run-unique transaction ids (shared across clients).
func NewGenerator(stream *rng.Stream, origin netsim.SiteID, cfg WorkloadConfig, nextID func() ID) *Generator {
	g := new(Generator)
	g.Init(stream, origin, cfg, nextID)
	return g
}

// Init makes g a generator for origin, in place (a population's
// generators are elements of one array). It draws the first arrival.
func (g *Generator) Init(stream *rng.Stream, origin netsim.SiteID, cfg WorkloadConfig, nextID func() ID) {
	if cfg.MeanObjects <= 0 {
		cfg.MeanObjects = 10
	}
	if cfg.MinLength <= 0 {
		cfg.MinLength = 50 * time.Millisecond
	}
	if cfg.MinSlack <= 0 {
		cfg.MinSlack = time.Second
	}
	*g = Generator{cfg: cfg, stream: stream, origin: origin, nextID: nextID}
	if a, ok := cfg.Access.(interface{ Advance(time.Duration) }); ok {
		g.advance = a.Advance
	}
	if cfg.Arrivals != nil {
		g.nextAt = cfg.Arrivals.Next(0)
	} else {
		g.nextAt = stream.Exp(cfg.MeanInterArrival)
	}
}

// NextArrival returns the absolute virtual time of the next transaction.
func (g *Generator) NextArrival() time.Duration { return g.nextAt }

// Next produces the transaction arriving at NextArrival and advances the
// arrival process.
func (g *Generator) Next() *Transaction {
	arrival := g.nextAt
	if g.cfg.Arrivals != nil {
		g.nextAt = g.cfg.Arrivals.Next(arrival)
	} else {
		g.nextAt += g.stream.Exp(g.cfg.MeanInterArrival)
	}
	if g.advance != nil {
		g.advance(arrival)
	}

	n := g.stream.Poisson(float64(g.cfg.MeanObjects))
	if n < 1 {
		n = 1
	}
	ids := g.cfg.Access.NextSet(n)
	ops := make([]Op, len(ids))
	for i, id := range ids {
		ops[i] = Op{
			Obj:   lockmgr.ObjectID(id),
			Write: g.stream.Float64() < g.cfg.UpdateFraction,
		}
	}
	length := g.stream.ExpMin(g.cfg.MeanLength, g.cfg.MinLength)
	var deadline time.Duration
	if g.cfg.IndependentDeadlines {
		deadline = arrival + g.stream.ExpMin(g.cfg.MeanSlack, g.cfg.MinSlack)
	} else {
		meanSlack := g.cfg.MeanSlack - g.cfg.MeanLength
		if meanSlack <= 0 {
			meanSlack = g.cfg.MeanSlack / 2
		}
		deadline = arrival + length + g.stream.ExpMin(meanSlack, g.cfg.MinSlack)
	}
	return &Transaction{
		ID:           g.nextID(),
		Origin:       g.origin,
		Arrival:      arrival,
		Deadline:     deadline,
		Length:       length,
		Ops:          ops,
		Decomposable: g.stream.Float64() < g.cfg.DecomposableFraction,
		Status:       StatusPending,
		ExecSite:     g.origin,
	}
}
