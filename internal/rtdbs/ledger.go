package rtdbs

import (
	"fmt"

	"siteselect/internal/metrics"
	"siteselect/internal/txn"
)

// ledger is what transaction conservation is checked against when a run
// keeps its invariants (Config.CheckInvariants): when the run ends,
// every transaction the system's maker issued is accounted for exactly
// once — retired, counted or cold (metrics.Collector.Retire), or still
// in flight — and the end-of-run walk found no finished transaction
// that its site should have retired where it finished.
type ledger struct {
	maker *txn.Maker
	// inFlight counts the transactions the end-of-run walk excluded as
	// still in flight; err is the first finished one it found unretired.
	inFlight int64
	err      error
}

// unretired records t, a finished transaction that its site should have
// retired where it finished, found by the end-of-run walk.
func (l *ledger) unretired(t *txn.Transaction) {
	if l.err == nil {
		l.err = fmt.Errorf("rtdbs: transaction %d finished %v at %v and was never retired",
			t.ID, t.Status, t.Finished)
	}
}

// verify checks conservation against m, the run's collector.
func (l *ledger) verify(m *metrics.Collector) error {
	if l.err != nil {
		return l.err
	}
	issued := int64(l.maker.Issued())
	if got := m.Submitted + m.Cold + l.inFlight; got != issued {
		return fmt.Errorf("rtdbs: %d transactions issued, %d accounted for: %d counted, %d cold, %d in flight",
			issued, got, m.Submitted, m.Cold, l.inFlight)
	}
	return nil
}
