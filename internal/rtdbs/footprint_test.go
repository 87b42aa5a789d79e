package rtdbs

import (
	"runtime"
	"testing"
	"time"

	"siteselect/internal/config"
)

// TestParkedClientFootprint is the blocking form of the population
// tier's B/client: a 10k-client cluster built and started — every site
// constructed, armed and parked, no transaction yet submitted — must
// stay under a fixed number of heap bytes and allocations per client.
// Both repeat for a given Go release (go1.24: 2 692 B and 15.0 mallocs;
// 2 831 and 16.0 before a lock table kept one record per owner and a
// server one per attached site; the parent of the change that added
// this test: 4 224 B and 30.1). The ceilings sit an eighth above that,
// which covers what differs across the CI matrix — the bucket layout of
// the population-sized maps, about 30 B an entry either way — and stays
// below what one regression costs: a by-value config.Config in each
// client is +424 B, eager maps in each lock table a malloc apiece. (What
// a site allocates only once traffic reaches it — the mailbox ring,
// page frames — is pinned where it lives, in internal/sim and
// internal/pagefile.)
func TestParkedClientFootprint(t *testing.T) {
	const (
		clients        = 10_000
		bytesCeiling   = 3030
		mallocsCeiling = 17
	)
	settled := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	var before, after runtime.MemStats
	settled(&before)
	c, err := NewClientServer(config.Scale(clients))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	settled(&after)
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / clients
	mallocs := float64(after.Mallocs-before.Mallocs) / clients
	t.Logf("%d clients built and started: %.0f B/client, %.1f mallocs/client", clients, bytes, mallocs)
	if bytes > bytesCeiling {
		t.Errorf("%.0f B/client, ceiling %d", bytes, bytesCeiling)
	}
	if mallocs > mallocsCeiling {
		t.Errorf("%.1f mallocs/client, ceiling %d", mallocs, mallocsCeiling)
	}
	runtime.KeepAlive(c)
	c.Env().Close()
}

// TestMallocsPerTransaction is the blocking form of the benchmark's
// allocs_per_txn on its write-path workload, at a tenth of the size: a
// sharded, batched, 20 %-update client-server cell, every heap object
// from construction to the end of the drain counted and divided by the
// transactions submitted. go1.24 reads 16.8 (17.1 with a map entry per
// object-keyed fact at the server; the parent of the change that pooled
// payloads, batch windows and lock queues: 69.3); what is left is the
// run's working set being built — cache entries, lock-table entries and
// their first holder and queue arrays, the transactions themselves —
// which a short run pays over fewer transactions than the benchmark's
// 45 minutes do. The ceiling leaves a third for what differs
// across the CI matrix (map growth, mostly) and sits far below what one
// boxed payload per message (+19 at this cell's 19 messages a
// transaction) or the window buffer regrown at every flush (+5) costs.
func TestMallocsPerTransaction(t *testing.T) {
	const ceiling = 22
	cfg := config.Default(40, 0.20)
	cfg.Sharding = config.Topology{Servers: 4, ReplicateHot: 3, HeatWindow: 5 * time.Minute}
	cfg.BatchWindow = 100 * time.Millisecond
	cfg.Duration, cfg.Warmup, cfg.Seed = 20*time.Minute, 2*time.Minute, 1

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewClientServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Submitted < 3000 || res.BatchFlushes == 0 || res.RecallsSent == 0 || res.ReplicasInstalled == 0 {
		t.Fatalf("cell too quiet to pin: %d submitted, %d flushes, %d recalls, %d replicas",
			res.M.Submitted, res.BatchFlushes, res.RecallsSent, res.ReplicasInstalled)
	}
	perTxn := float64(after.Mallocs-before.Mallocs) / float64(res.M.Submitted)
	t.Logf("%d transactions, %.1f messages each: %.1f mallocs per transaction",
		res.M.Submitted, float64(res.TotalMessages)/float64(res.M.Submitted), perTxn)
	if perTxn > ceiling {
		t.Errorf("%.1f mallocs per submitted transaction, ceiling %d", perTxn, ceiling)
	}
}
