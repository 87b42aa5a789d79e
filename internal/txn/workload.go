package txn

import (
	"fmt"
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
// implementation outside tests, but the interface keeps the client
// decoupled from how the stream is parameterized.
type Source interface {
	// NextArrival returns the absolute virtual time of the next
	// transaction.
	NextArrival() time.Duration
	// Next produces the transaction arriving at NextArrival and
	// advances the arrival process.
	Next() *Transaction
	// Maker returns the maker the stream's transactions come from, which
	// lists them until the client retires them.
	Maker() *Maker
}

// Maker is the one source of a system's transactions, shared by its
// generators: it numbers them, carves the records and their access
// vectors from two slabs, and lists every transaction it issues until a
// retire point forgets it. Nothing is handed back. A transaction is
// retired where it reaches its final state — counted in the system's
// collector and forgotten here — and then nothing refers to it any more,
// so once every record of a chunk is retired the collector takes the
// chunk. Records are not reused, so a reader still holding a retired one
// reads its final state and cannot corrupt a newer transaction.
type Maker struct {
	lastID ID
	txns   slab.Slab[Transaction]
	ops    slab.Slab[Op]
	// live lists the transactions issued and not yet forgotten, in no
	// order: t is live[t.listed-1].
	live []*Transaction
	// ids is the buffer every generator draws an access set into
	// (rng.AccessGen.FillSet): Next copies it into the transaction at
	// once, so one buffer serves the system.
	ids []int
}

// Issued returns how many transactions m has made: their IDs are 1 to
// Issued.
func (m *Maker) Issued() ID { return m.lastID }

// New returns a transaction with the next id and room for n accesses,
// and lists it.
func (m *Maker) New(n int) *Transaction {
	t := m.txns.New()
	m.lastID++
	t.ID, t.Ops = m.lastID, m.ops.Block(n)
	m.live = append(m.live, t)
	t.listed = uint32(len(m.live))
	return t
}

// Forget takes t off the list, moving the last listed transaction into
// its place. It panics if t is not listed: forgotten already, or never
// issued by m.
func (m *Maker) Forget(t *Transaction) {
	i := int(t.listed) - 1
	if i < 0 || i >= len(m.live) || m.live[i] != t {
		panic(fmt.Sprintf("txn: transaction %d forgotten but not listed", t.ID))
	}
	last := len(m.live) - 1
	m.live[i] = m.live[last]
	m.live[i].listed = uint32(i + 1)
	m.live[last] = nil
	m.live = m.live[:last]
	t.listed = 0
}

// Listed returns the transactions m issued and has not forgotten, in no
// order, until the next New or Forget.
func (m *Maker) Listed() []*Transaction { return m.live }

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

// Maker returns the maker g carves its transactions from: its system's.
func (g *Generator) Maker() *Maker { return g.maker }

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
