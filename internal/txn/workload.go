package txn

import (
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/rng"
	"siteselect/internal/slab"
)

// The floors of a transaction's length and slack draws.
const (
	minLength = 50 * time.Millisecond
	minSlack  = time.Second
)

// WorkloadConfig shapes one client's transaction stream (Table 1).
type WorkloadConfig struct {
	// MeanInterArrival is the mean of the Poisson arrival process.
	MeanInterArrival time.Duration
	// MeanLength is the mean (exponential) prescribed execution time,
	// floored at minLength.
	MeanLength time.Duration
	// MeanSlack is the mean deadline offset beyond the arrival time
	// (Table 1's "average transaction deadline"). Deadlines are set to
	// arrival + length + slack where slack is exponential with mean
	// MeanSlack − MeanLength, so an unobstructed transaction always
	// makes its deadline and every miss is system-induced (queueing,
	// blocking, or data-shipping delay). The slack draw is floored at
	// minSlack.
	MeanSlack time.Duration
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

// Maker is the one source of a system's transactions, shared by its
// generators: it numbers them and carves the records and their access
// vectors from two slabs. Nothing is handed back: a transaction is
// tracked to the end of the run, which reads its outcome.
type Maker struct {
	lastID ID
	txns   slab.Slab[Transaction]
	ops    slab.Slab[Op]
	// ids is the buffer every generator draws an access set into
	// (rng.AccessGen.FillSet): Next copies it into the transaction at
	// once, so one buffer serves the system.
	ids []int
}

// New returns a transaction with the next id and room for n accesses.
func (m *Maker) New(n int) *Transaction {
	t := m.txns.New()
	m.lastID++
	t.ID, t.Ops = m.lastID, m.ops.Block(n)
	return t
}

// Generator produces one client's transaction stream deterministically
// from its stream.
type Generator struct {
	cfg     WorkloadConfig
	stream  *rng.Stream
	origin  netsim.SiteID
	maker   *Maker
	nextAt  time.Duration
	advance func(time.Duration)
}

// Init makes g a generator for origin, in place (a population's
// generators are elements of one array). It draws the first arrival.
func (g *Generator) Init(stream *rng.Stream, origin netsim.SiteID, cfg WorkloadConfig, maker *Maker) {
	if cfg.MeanObjects <= 0 {
		cfg.MeanObjects = 10
	}
	*g = Generator{cfg: cfg, stream: stream, origin: origin, maker: maker}
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
	ids := g.cfg.Access.FillSet(g.maker.ids, n)
	g.maker.ids = ids
	t := g.maker.New(len(ids))
	for i, id := range ids {
		t.Ops[i] = Op{
			Obj:   lockmgr.ObjectID(id),
			Write: g.stream.Float64() < g.cfg.UpdateFraction,
		}
	}
	length := g.stream.ExpMin(g.cfg.MeanLength, minLength)
	var deadline time.Duration
	if g.cfg.IndependentDeadlines {
		deadline = arrival + g.stream.ExpMin(g.cfg.MeanSlack, minSlack)
	} else {
		meanSlack := g.cfg.MeanSlack - g.cfg.MeanLength
		if meanSlack <= 0 {
			meanSlack = g.cfg.MeanSlack / 2
		}
		deadline = arrival + length + g.stream.ExpMin(meanSlack, minSlack)
	}
	t.Origin, t.ExecSite = g.origin, g.origin
	t.Arrival, t.Deadline, t.Length = arrival, deadline, length
	t.Decomposable = g.stream.Float64() < g.cfg.DecomposableFraction
	t.Status = StatusPending
	return t
}
