// Package metrics aggregates the quantities the paper reports: the
// percentage of transactions completing within their deadlines (the key
// real-time measure), object response times split by requested lock
// mode (Table 3), client cache hit rates (Table 2), and the
// protocol-level counters behind Table 4.
package metrics

import (
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/txn"
)

// DurStats accumulates a duration sample.
type DurStats struct {
	Count int64
	Total time.Duration
	Max   time.Duration
}

// Observe adds one sample.
func (d *DurStats) Observe(v time.Duration) {
	d.Count++
	d.Total += v
	if v > d.Max {
		d.Max = v
	}
}

// Mean returns the sample mean (zero when empty).
func (d *DurStats) Mean() time.Duration {
	if d.Count == 0 {
		return 0
	}
	return d.Total / time.Duration(d.Count)
}

// Collector gathers a run's statistics. It is not safe for concurrent
// use; the simulation is single-threaded by construction.
type Collector struct {
	// Transaction outcomes. Cold counts the transactions retired
	// uncounted, for arriving before the warm-up ended.
	Submitted int64
	Committed int64
	Missed    int64
	Aborted   int64
	Cold      int64

	// Load sharing activity.
	ShippedTxns    int64
	DecomposedTxns int64
	SubtasksRun    int64
	H1Rejections   int64

	// Cache behaviour at the executing site.
	CacheAccesses int64
	CacheHits     int64

	// Object response times by requested mode: request sent to object
	// available at the client. The histograms add tail percentiles.
	SharedResponse    DurStats
	ExclusiveResponse DurStats
	SharedHisto       Histogram
	ExclusiveHisto    Histogram

	// Transaction response time (arrival to commit) for committed
	// transactions.
	TxnResponse DurStats
	TxnHisto    Histogram

	// Recall handling.
	RecallsDeferred int64
	Refetches       int64

	// Speculation extension counters: attempts that overlapped
	// execution with in-flight upgrades, and how many validated.
	SpeculativeRuns int64
	SpeculationHits int64

	shipped classStats
	// executed counts the committed transactions Retire tallied by the
	// client site that executed them (nil until the first).
	executed map[netsim.SiteID]int64
}

// Per-class outcome counts for shipped transactions, letting experiments
// verify that load sharing helps the transactions it moves.
type classStats struct {
	Submitted int64
	Committed int64
}

// ShippedOutcomes tracks transactions the load-sharing algorithm moved.
func (c *Collector) ShippedOutcomes() (submitted, committed int64) {
	return c.shipped.Submitted, c.shipped.Committed
}

// Retire tallies t, a transaction that has reached its final state and
// that its system now forgets, unless it arrived before warmup ended:
// cold-start transactions are excluded (Cold). A committed one that ran
// at a client site also counts for that site (ExecutedPerSite). Every
// sum is an integer, so the order in which a system retires its
// transactions cannot change a result.
func (c *Collector) Retire(t *txn.Transaction, warmup time.Duration) {
	if t.Arrival < warmup {
		c.Cold++
		return
	}
	c.Submitted++
	c.RecordOutcome(t)
	if t.Status == txn.StatusCommitted && t.ExecSite != netsim.ServerSite {
		if c.executed == nil {
			c.executed = make(map[netsim.SiteID]int64)
		}
		c.executed[t.ExecSite]++
	}
}

// ExecutedPerSite returns the committed transactions Retire counted, by
// the client site that executed them; a site that executed none has no
// entry.
func (c *Collector) ExecutedPerSite() map[netsim.SiteID]int64 { return c.executed }

// RecordOutcome tallies a terminal transaction.
func (c *Collector) RecordOutcome(t *txn.Transaction) {
	if t.Shipped {
		c.shipped.Submitted++
		if t.Status == txn.StatusCommitted {
			c.shipped.Committed++
		}
	}
	switch t.Status {
	case txn.StatusCommitted:
		c.Committed++
		c.TxnResponse.Observe(t.Finished - t.Arrival)
		c.TxnHisto.Observe(t.Finished - t.Arrival)
	case txn.StatusMissed:
		c.Missed++
	case txn.StatusAborted:
		c.Aborted++
	}
}

// RecordResponse tallies one satisfied object request.
func (c *Collector) RecordResponse(mode lockmgr.Mode, d time.Duration) {
	if mode == lockmgr.ModeExclusive {
		c.ExclusiveResponse.Observe(d)
		c.ExclusiveHisto.Observe(d)
	} else {
		c.SharedResponse.Observe(d)
		c.SharedHisto.Observe(d)
	}
}

// RecordCacheAccess tallies one object access at the executing site.
func (c *Collector) RecordCacheAccess(hit bool) {
	c.CacheAccesses++
	if hit {
		c.CacheHits++
	}
}

// SuccessRate returns the fraction of submitted transactions that
// committed within their deadlines — the paper's primary metric.
func (c *Collector) SuccessRate() float64 {
	if c.Submitted == 0 {
		return 0
	}
	return float64(c.Committed) / float64(c.Submitted)
}

// CacheHitRate returns the fraction of accesses served locally.
func (c *Collector) CacheHitRate() float64 {
	if c.CacheAccesses == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(c.CacheAccesses)
}
