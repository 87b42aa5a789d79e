package forward

import (
	"testing"
	"testing/quick"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
)

func netsimSiteID(i int) netsim.SiteID { return netsim.SiteID(i) }

func TestInsertDeadlineOrder(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Deadline: 30 * time.Second})
	l.Insert(Entry{Client: 2, Deadline: 10 * time.Second})
	l.Insert(Entry{Client: 3, Deadline: 20 * time.Second})
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	for i, e := range l.Entries {
		if e.Deadline != want[i] {
			t.Fatalf("order = %v", l.Entries)
		}
	}
}

func TestInsertTieFIFO(t *testing.T) {
	l := NewList(1)
	for i := 1; i <= 4; i++ {
		l.Insert(Entry{Client: netsimSiteID(i), Deadline: time.Second})
	}
	for i, e := range l.Entries {
		if int(e.Client) != i+1 {
			t.Fatalf("tie order = %v", l.Entries)
		}
	}
}

func TestPopLiveSkipsDead(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Deadline: 5 * time.Second})
	l.Insert(Entry{Client: 2, Deadline: 15 * time.Second})
	l.Insert(Entry{Client: 3, Deadline: 25 * time.Second})
	e, ok := l.PopLive(10 * time.Second)
	if !ok || e.Client != 2 {
		t.Fatalf("PopLive = %+v ok=%v", e, ok)
	}
	// Client 1's dead entry went with it; client 3's is left.
	if l.Len() != 1 || l.Entries[0].Client != 3 {
		t.Fatalf("left = %v", l.Entries)
	}
	if _, ok = l.PopLive(100 * time.Second); ok || l.Len() != 0 {
		t.Fatalf("all-dead pop: ok=%v len=%d", ok, l.Len())
	}
}

func TestLastLiveEntry(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Deadline: 10 * time.Second})
	l.Insert(Entry{Client: 2, Deadline: 20 * time.Second})
	l.Insert(Entry{Client: 3, Deadline: 30 * time.Second})
	e, ok := l.Last(0)
	if !ok || e.Client != 3 {
		t.Fatalf("Last = %+v", e)
	}
	// At t=25s only client 3's entry is live.
	e, ok = l.Last(25 * time.Second)
	if !ok || e.Client != 3 {
		t.Fatalf("Last(25s) = %+v", e)
	}
	if _, ok := l.Last(100 * time.Second); ok {
		t.Fatal("all-dead Last should be !ok")
	}
}

func TestParallelReadRun(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Mode: lockmgr.ModeShared, Deadline: 1 * time.Second})
	l.Insert(Entry{Client: 2, Mode: lockmgr.ModeShared, Deadline: 2 * time.Second})
	l.Insert(Entry{Client: 3, Mode: lockmgr.ModeExclusive, Deadline: 3 * time.Second})
	l.Insert(Entry{Client: 4, Mode: lockmgr.ModeShared, Deadline: 4 * time.Second})
	if run := l.PopRun(nil, 0); len(run) != 2 || run[1].Client != 2 {
		t.Fatalf("parallel run = %v, want clients 1 and 2", run)
	}
}

func TestCloneIndependent(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Deadline: time.Second})
	c := l.Clone()
	c.Insert(Entry{Client: 2, Deadline: 2 * time.Second})
	if l.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: %d vs %d", l.Len(), c.Len())
	}
}

// windowRig is a collector's owner: it keeps each object's open list and
// moves it to sealed when the collector says the window closed.
type windowRig struct {
	env    *sim.Env
	c      Collector
	open   [4]*List
	sealed []*List
}

func newWindowRig(window time.Duration) *windowRig {
	w := &windowRig{env: sim.NewEnv()}
	w.c.Init(w.env, window, func(obj lockmgr.ObjectID) {
		if l := w.open[obj]; l != nil {
			w.open[obj] = nil
			w.sealed = append(w.sealed, l)
		}
	})
	return w
}

// add queues e for obj, opening a collection window on first use.
func (w *windowRig) add(obj lockmgr.ObjectID, e Entry) {
	if w.open[obj] == nil {
		w.open[obj] = NewList(obj)
		w.c.Open(obj)
	}
	w.open[obj].Insert(e)
}

func TestCollectorWindow(t *testing.T) {
	w := newWindowRig(time.Second)
	w.env.Schedule(0, func() { w.add(1, Entry{Client: 1, Deadline: 10 * time.Second}) })
	w.env.Schedule(500*time.Millisecond, func() { w.add(1, Entry{Client: 2, Deadline: 5 * time.Second}) })
	// After the window: arrives too late for the first list.
	w.env.Schedule(1500*time.Millisecond, func() { w.add(1, Entry{Client: 3, Deadline: 7 * time.Second}) })
	w.env.Run(5 * time.Second)
	sealed := w.sealed
	if len(sealed) != 2 {
		t.Fatalf("sealed lists = %d, want 2", len(sealed))
	}
	if sealed[0].Len() != 2 || sealed[0].Entries[0].Client != 2 {
		t.Fatalf("first list = %+v", sealed[0].Entries)
	}
	if sealed[1].Len() != 1 || sealed[1].Entries[0].Client != 3 {
		t.Fatalf("second list = %+v", sealed[1].Entries)
	}
}

func TestCollectorZeroWindowSealsImmediately(t *testing.T) {
	w := newWindowRig(0)
	w.env.Schedule(0, func() { w.add(1, Entry{Client: 1, Deadline: time.Second}) })
	w.env.Schedule(0, func() { w.add(1, Entry{Client: 2, Deadline: time.Second}) })
	w.env.Run(time.Second)
	// Both adds happen at t=0 before the seal event (scheduled after),
	// so they still share one list; a zero window just means no extra
	// waiting.
	if len(w.sealed) != 1 || w.sealed[0].Len() != 2 {
		t.Fatalf("sealed = %d lists", len(w.sealed))
	}
}

func TestMessageCountFormulas(t *testing.T) {
	for n := 1; n <= 20; n++ {
		if Messages2PL(n) != 3*n {
			t.Fatalf("2PL(%d) = %d", n, Messages2PL(n))
		}
		if MessagesCallback(n) != 4*n {
			t.Fatalf("callback(%d) = %d", n, MessagesCallback(n))
		}
		if MessagesGrouped(n) != 2*n+1 {
			t.Fatalf("grouped(%d) = %d", n, MessagesGrouped(n))
		}
		if n >= 1 && MessagesGrouped(n) >= MessagesCallback(n) && n > 1 {
			t.Fatalf("grouping should win for n=%d", n)
		}
	}
}

func TestFigureScenarios(t *testing.T) {
	if got := len(FigureScenarioCallback()); got != 7 {
		t.Fatalf("Figure 1 scenario = %d messages, want 7", got)
	}
	if got := len(FigureScenarioGrouped()); got != 5 {
		t.Fatalf("Figure 2 scenario = %d messages, want 5", got)
	}
}

// Property: PopLive drains the list in nondecreasing deadline order
// among live entries, regardless of insertion order.
func TestPopLiveOrderProperty(t *testing.T) {
	f := func(deadlinesMs []uint16, nowMs uint16) bool {
		l := NewList(1)
		for i, d := range deadlinesMs {
			l.Insert(Entry{Client: netsimSiteID(i), Deadline: time.Duration(d) * time.Millisecond})
		}
		now := time.Duration(nowMs) * time.Millisecond
		last := time.Duration(-1)
		for {
			before := l.Entries // PopLive reslices; the entries stay put
			e, ok := l.PopLive(now)
			dropped := len(before) - l.Len()
			if ok {
				dropped--
			}
			for _, s := range before[:dropped] {
				if s.Deadline >= now {
					return false
				}
			}
			if !ok {
				return true
			}
			if e.Deadline < now || e.Deadline < last {
				return false
			}
			last = e.Deadline
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCopiesReadRunAndRetained(t *testing.T) {
	l := NewList(1)
	l.ReadRun = true
	l.Retained = []netsim.SiteID{3, 4}
	l.Insert(Entry{Client: 1, Deadline: time.Second, Num: 7})
	c := l.Clone()
	if !c.ReadRun {
		t.Fatal("ReadRun not cloned")
	}
	if len(c.Retained) != 2 || c.Retained[0] != 3 {
		t.Fatalf("Retained = %v", c.Retained)
	}
	if c.Entries[0].Num != 7 {
		t.Fatalf("entry number = %d", c.Entries[0].Num)
	}
	c.Retained = append(c.Retained, 9)
	if len(l.Retained) != 2 {
		t.Fatal("clone shares Retained backing array state")
	}
}

func TestHasExclusive(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Mode: lockmgr.ModeShared, Deadline: time.Second})
	if l.HasExclusive() {
		t.Fatal("all-shared list reported exclusive")
	}
	l.Insert(Entry{Client: 2, Mode: lockmgr.ModeExclusive, Deadline: 2 * time.Second})
	if !l.HasExclusive() {
		t.Fatal("exclusive entry not detected")
	}
}

func TestPopRunStopsAtModeBoundary(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Mode: lockmgr.ModeShared, Deadline: 1 * time.Second})
	l.Insert(Entry{Client: 2, Mode: lockmgr.ModeShared, Deadline: 2 * time.Second})
	l.Insert(Entry{Client: 3, Mode: lockmgr.ModeExclusive, Deadline: 3 * time.Second})
	l.Insert(Entry{Client: 4, Mode: lockmgr.ModeShared, Deadline: 4 * time.Second})
	run := l.PopRun(nil, 0)
	if len(run) != 2 || l.Len() != 2 {
		t.Fatalf("run=%d left=%d", len(run), l.Len())
	}
	run = l.PopRun(run[:0], 0)
	if len(run) != 1 || run[0].Mode != lockmgr.ModeExclusive {
		t.Fatalf("second run = %+v", run)
	}
	run = l.PopRun(run[:0], 0)
	if len(run) != 1 || run[0].Client != 4 {
		t.Fatalf("third run = %+v", run)
	}
}

func TestPopRunSkipsDeadInsideRun(t *testing.T) {
	l := NewList(1)
	l.Insert(Entry{Client: 1, Mode: lockmgr.ModeShared, Deadline: 1 * time.Second})  // dead at now=5s
	l.Insert(Entry{Client: 2, Mode: lockmgr.ModeShared, Deadline: 10 * time.Second}) // live
	l.Insert(Entry{Client: 3, Mode: lockmgr.ModeShared, Deadline: 2 * time.Second})  // dead
	run := l.PopRun(nil, 5*time.Second)
	if len(run) != 1 || run[0].Client != 2 {
		t.Fatalf("run = %+v", run)
	}
	// Both dead entries went with the run.
	if l.Len() != 0 {
		t.Fatalf("left = %+v", l.Entries)
	}
}

// TestStockListSlidesAndGrows: a stock list keeps deadline order across
// front pops and growth — the entries PopLive left slide back to the
// block's start before it grows — and comes back from Put empty, with
// its block, for the next New.
func TestStockListSlidesAndGrows(t *testing.T) {
	var s Stock
	l := s.New(3)
	for i := range 4 {
		l.Insert(Entry{Client: netsimSiteID(i), Deadline: time.Duration(10+i) * time.Second})
	}
	for range 3 {
		l.PopLive(0)
	}
	for i := range 6 {
		l.Insert(Entry{Client: netsimSiteID(10 + i), Deadline: time.Duration(20-i) * time.Second})
	}
	if err := l.Wellformed(); err != nil || l.Len() != 7 || l.Entries[0].Client != 3 {
		t.Fatalf("after pops and growth: %v, %v", err, l.Entries)
	}
	block := cap(l.block)
	s.Put(l)
	if again := s.New(4); again != l || again.Obj != 4 || again.Len() != 0 || cap(again.Entries) != block || again.ReadRun {
		t.Fatalf("New after Put = %p %+v, want %p empty with its %d-entry block", again, again, l, block)
	}
}

// TestStockPutTwicePanics: a list handed back twice would be handed out
// twice; the stock refuses the second Put, and one it never made.
func TestStockPutTwicePanics(t *testing.T) {
	var s Stock
	l := s.New(1)
	s.Put(l)
	for name, put := range map[string]func(){
		"twice":   func() { s.Put(l) },
		"foreign": func() { s.Put(NewList(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put %s did not panic", name)
				}
			}()
			put()
		}()
	}
}

// TestStockCloneIsDeep: a stock list's clone is the stock's, with its
// own entries and retained sites.
func TestStockCloneIsDeep(t *testing.T) {
	var s Stock
	l := s.New(1)
	l.ReadRun = true
	l.Retain(3)
	for i := range 5 {
		l.Insert(Entry{Client: netsimSiteID(i), Deadline: time.Second})
	}
	c := l.Clone()
	c.Entries[0].Client = 99
	c.Retain(9)
	if !c.ReadRun || c.Len() != 5 || l.Entries[0].Client != 0 || len(l.Retained) != 1 || len(c.Retained) != 2 {
		t.Fatalf("clone %+v shares state with %+v", c, l)
	}
	s.Put(c)
	s.Put(l)
}
