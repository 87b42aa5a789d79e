package rtdbs

import (
	"runtime"
	"testing"

	"siteselect/internal/config"
)

// TestParkedClientFootprint is the blocking form of the population
// tier's B/client: a 10k-client cluster built and started — every site
// constructed, armed and parked, no transaction yet submitted — must
// stay under a fixed number of heap bytes and allocations per client.
// Both repeat for a given Go release (go1.24: 2 782 B and 16.0 mallocs;
// the parent of the change that added this test: 4 224 B and 30.1). The
// ceilings sit an eighth above that, which covers what differs across
// the CI matrix — the bucket layout of the three population-sized maps,
// about 30 B an entry either way — and stays below what one regression
// costs: a by-value config.Config in each client is +424 B, four eager
// maps in each lock table +4 mallocs. (What a site allocates only once
// traffic reaches it — the mailbox ring, page frames — is pinned where
// it lives, in internal/sim and internal/pagefile.)
func TestParkedClientFootprint(t *testing.T) {
	const (
		clients        = 10_000
		bytesCeiling   = 3100
		mallocsCeiling = 18
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
