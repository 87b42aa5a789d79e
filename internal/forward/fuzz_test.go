package forward

import (
	"slices"
	"testing"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/txn"
)

// FuzzForwardList checks the list invariants under arbitrary insert and
// pop interleavings: the list stays well-formed (the same check the
// continuous invariant monitor runs) after every mutation, PopLive
// yields nondecreasing deadlines among live entries and drops only dead
// ones, PopRun yields a single-mode run, and no entry is ever lost
// (every insert is eventually popped or dropped, counted by Len). A
// list from a Stock — sliding its entries back over front pops, growing
// in the stock's blocks, and taken again after Put — holds exactly what
// a list of its own does after every insert, pop and clone.
func FuzzForwardList(f *testing.F) {
	f.Add([]byte{0x10, 0x22, 0x35, 0xf0}, uint8(3))
	f.Add([]byte{0x01, 0x81, 0x41, 0xc1}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nowByte uint8) {
		l := NewList(1)
		inserted := 0
		for _, b := range data {
			e := Entry{
				Client:   netsim.SiteID(b&0x0f) + 1,
				Deadline: time.Duration(b>>4) * time.Millisecond,
				Mode:     lockmgr.ModeShared,
			}
			if b&0x01 != 0 {
				e.Mode = lockmgr.ModeExclusive
			}
			l.Insert(e)
			inserted++
			if err := l.Wellformed(); err != nil {
				t.Fatalf("after insert %d: %v", inserted, err)
			}
		}
		now := time.Duration(nowByte%16) * time.Millisecond
		accounted := 0
		last := time.Duration(-1)
		for {
			before := l.Entries // PopLive reslices; the entries stay put
			e, ok := l.PopLive(now)
			dropped := len(before) - l.Len()
			if ok {
				dropped--
			}
			accounted += dropped
			for _, s := range before[:dropped] {
				if s.Deadline >= now {
					t.Fatalf("live entry %+v skipped", s)
				}
			}
			if err := l.Wellformed(); err != nil {
				t.Fatalf("after pop: %v", err)
			}
			if !ok {
				break
			}
			accounted++
			if e.Deadline < now {
				t.Fatalf("dead entry %+v popped", e)
			}
			if e.Deadline < last {
				t.Fatalf("deadline order broken: %v after %v", e.Deadline, last)
			}
			last = e.Deadline
		}
		if accounted != inserted {
			t.Fatalf("entries lost: inserted %d, accounted %d", inserted, accounted)
		}

		// PopRun mode purity on a fresh copy.
		l2 := NewList(2)
		for _, b := range data {
			mode := lockmgr.ModeShared
			if b&0x01 != 0 {
				mode = lockmgr.ModeExclusive
			}
			l2.Insert(Entry{
				Client:   netsim.SiteID(b&0x0f) + 1,
				Deadline: time.Duration(b>>4) * time.Millisecond,
				Mode:     mode,
			})
		}
		for {
			run := l2.PopRun(nil, now)
			if len(run) == 0 {
				break
			}
			for _, e := range run {
				if e.Mode != run[0].Mode {
					t.Fatalf("mixed-mode run: %v", run)
				}
			}
		}

		// A stock list against a list of its own, inserts and pops
		// interleaved (a byte with its high bit set pops), twice through
		// one stock so that the second round runs on the recycled list.
		var stock Stock
		for round := range 2 {
			own, sl := NewList(3), stock.New(3)
			for i, b := range data {
				if b&0x80 != 0 {
					e1, ok1 := own.PopLive(now)
					e2, ok2 := sl.PopLive(now)
					if e1 != e2 || ok1 != ok2 {
						t.Fatalf("round %d, op %d: stock list popped %+v %v, own list %+v %v", round, i, e2, ok2, e1, ok1)
					}
				} else {
					e := Entry{Client: netsim.SiteID(b&0x0f) + 1, Deadline: time.Duration(b>>4) * time.Millisecond, Txn: txn.ID(i)}
					own.Insert(e)
					sl.Insert(e)
				}
				if !slices.Equal(own.Entries, sl.Entries) {
					t.Fatalf("round %d, op %d: stock list %v, own list %v", round, i, sl.Entries, own.Entries)
				}
			}
			c := sl.Clone()
			if !slices.Equal(c.Entries, own.Entries) {
				t.Fatalf("round %d: clone %v, list %v", round, c.Entries, own.Entries)
			}
			stock.Put(c)
			stock.Put(sl)
		}
	})
}
