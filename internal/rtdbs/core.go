package rtdbs

import (
	"fmt"

	"siteselect/internal/config"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
)

// core is what a run of every system is built on: the configuration,
// the kernel, the LAN, the population's generators and the maker they
// carve their transactions from, the collector the sites retire them
// into, and the tracer (nil unless the run traces). The end of a run is
// the same for every system: settle the maker's list, read the Result
// fields every system has, and, when the run keeps its invariants,
// check transaction conservation (ledger). A system embeds it and keeps
// only its own sites and audits.
type core struct {
	// cfg is the one configuration every site points at; nothing writes
	// it once the system's constructor has returned.
	cfg  config.Config
	env  *sim.Env
	net  *netsim.Network
	gens []txn.Generator
	txns *txn.Maker
	m    *metrics.Collector
	tr   *trace.Tracer
	// ledger is what settle found for the conservation check.
	ledger ledger
}

// init validates cfg and builds the run's kernel, LAN and workload
// (newGenerators) on it; gens[i-1] is site i's generator.
func (r *core) init(cfg config.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.cfg = cfg
	r.env = sim.NewEnv()
	r.net = netsim.New(r.env, netsim.Config{
		Latency:      cfg.NetLatency,
		BandwidthBps: cfg.NetBandwidthBps,
		Switched:     cfg.Topology == config.TopologySwitched,
	})
	r.m = &metrics.Collector{}
	r.gens, r.txns = newGenerators(&r.cfg)
	return nil
}

// Env exposes the simulation environment (tests drive it directly).
func (r *core) Env() *sim.Env { return r.env }

// Net exposes the simulated LAN (e.g. to install a message trace before
// Start).
func (r *core) Net() *netsim.Network { return r.net }

// settle ends the run's accounting and returns the Result fields every
// system has. Whatever the maker still lists was not retired where it
// ended: a transaction whose deadline has not passed is in flight, and
// excluded; one past its deadline died waiting and is missed, its trace
// closed where it waited; one shipped and finished at its target, with
// the result still on the wire, is as it ended. The last two are counted
// here; the list is left as the run left it, for the tests that read it.
// (The walk's order reaches no output: the collector's sums are
// integers, and the tracer exports in submission order.)
func (r *core) settle() *Result {
	now := r.env.Now()
	for _, t := range r.txns.Listed() {
		switch {
		case !t.Terminal() && t.Deadline >= now:
			r.ledger.inFlight++
			continue
		case !t.Terminal():
			t.Status = txn.StatusMissed
			t.Finished = now
			site := t.ExecSite
			if site == netsim.ServerSite {
				site = t.Origin
			}
			r.tr.Finish(t, site, now)
		case !t.Shipped:
			r.ledger.unretired(t)
		}
		r.m.Retire(t, r.cfg.Warmup)
	}
	res := &Result{
		Config:         r.cfg,
		M:              r.m,
		Messages:       messageSnapshot(r.net),
		TotalMessages:  r.net.TotalMessages(),
		TotalBytes:     r.net.TotalBytes(),
		NetUtilization: r.net.Utilization(),
		Elapsed:        now,
	}
	if r.tr != nil {
		res.MissCauses = r.tr.MissCauses(r.cfg.Warmup)
	}
	return res
}

// conserved is transaction conservation, checked when the run keeps its
// invariants (Config.CheckInvariants) once settle has run.
func (r *core) conserved() error {
	if !r.cfg.CheckInvariants {
		return nil
	}
	return r.ledger.verify(r.m, r.txns)
}

// ledger is what transaction conservation is checked against: when the
// run ends, every transaction the system's maker issued is accounted
// for exactly once — retired, counted or cold (metrics.Collector.Retire),
// or still in flight — and settle found no finished transaction that
// its site should have retired where it finished.
type ledger struct {
	// inFlight counts the transactions settle excluded as still in
	// flight; err is the first finished one it found unretired.
	inFlight int64
	err      error
}

// unretired records t, a finished transaction that its site should have
// retired where it finished, found by settle.
func (l *ledger) unretired(t *txn.Transaction) {
	if l.err == nil {
		l.err = fmt.Errorf("rtdbs: transaction %d finished %v at %v and was never retired",
			t.ID, t.Status, t.Finished)
	}
}

// verify checks conservation against m, the run's collector, and txns,
// the run's maker.
func (l *ledger) verify(m *metrics.Collector, txns *txn.Maker) error {
	if l.err != nil {
		return l.err
	}
	issued := int64(txns.Issued())
	if got := m.Submitted + m.Cold + l.inFlight; got != issued {
		return fmt.Errorf("rtdbs: %d transactions issued, %d accounted for: %d counted, %d cold, %d in flight",
			issued, got, m.Submitted, m.Cold, l.inFlight)
	}
	return nil
}
