package forward

import (
	"testing"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
)

// listRound is one life of a stock list as a shard and its clients
// lead it: k requests inserted out of deadline order, the run popped at
// dispatch, the copy that travels cloned and walked down its entries
// with a site kept on the way, and both lists handed back.
func listRound(s *Stock, k int, run []Entry) []Entry {
	l := s.New(7)
	for i := range k {
		mode := lockmgr.ModeExclusive
		if i%4 == 3 {
			mode = lockmgr.ModeShared
		}
		l.Insert(Entry{Client: netsim.SiteID(1 + i), Mode: mode, Deadline: time.Duration((i*5)%k) * time.Second})
	}
	run = l.PopRun(run[:0], 0)
	c := l.Clone()
	for e, ok := c.PopLive(0); ok; e, ok = c.PopLive(0) {
		c.Retain(e.Client)
	}
	s.Put(c)
	s.Put(l)
	return run
}

// TestStockListRoundZeroAlloc: once the stock holds lists grown to the
// round's length, a round allocates nothing — the lists come back with
// their blocks, and a list that grows past one takes a block another
// outgrew.
func TestStockListRoundZeroAlloc(t *testing.T) {
	var s Stock
	var run []Entry
	for _, k := range []int{1, 3, 8, 20} {
		run = listRound(&s, k, run) // warm the stock
		if n := testing.AllocsPerRun(100, func() { run = listRound(&s, k, run) }); n != 0 {
			t.Errorf("a round of %d entries allocates %v, want 0", k, n)
		}
	}
}

// BenchmarkListRound times one stock list's life at eight entries:
// Insert ×8, PopRun, Clone and the walk down the copy, both handed back.
// It allocates nothing.
func BenchmarkListRound(b *testing.B) {
	var s Stock
	run := listRound(&s, 8, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run = listRound(&s, 8, run)
	}
}
