package server

import (
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/txn"
)

// sealCall is one firing of the collection-window clock: the object, the
// time, and the list it found open (nil: sealed early already).
type sealCall struct {
	obj  lockmgr.ObjectID
	at   time.Duration
	open *forward.List
}

// watchWindows re-arms the server's clock to record every firing before
// handing it to seal. Call before any request.
func (r *rig) watchWindows() *[]sealCall {
	var calls []sealCall
	s := r.srv
	s.collector.Init(r.env, s.cfg.CollectionWindow, func(obj lockmgr.ObjectID) {
		calls = append(calls, sealCall{obj: obj, at: r.env.Now(), open: s.find(obj).open})
		s.seal(obj)
	})
	return &calls
}

// requestAll sends one firm request for every object, in order.
func (r *rig) requestAll(from int, mode lockmgr.Mode, objs ...lockmgr.ObjectID) {
	r.nextTx++
	q := &proto.ObjRequest{Op: proto.OpCommit, Client: netsim.SiteID(from), Txn: txn.ID(r.nextTx), Deadline: time.Minute}
	for _, obj := range objs {
		q.Objs, q.Modes = append(q.Objs, obj), append(q.Modes, mode)
		q.Nums = append(q.Nums, 1)
	}
	r.send(from, netsim.KindObjectRequest, q)
}

// TestCollectionWindowsCloseInOpeningOrder: windows opened at one
// instant (one message naming objects 3, 1, 2) and one opened later
// (object 4) close one window length after they opened, in the order
// they opened, each sealing its object's list.
func TestCollectionWindowsCloseInOpeningOrder(t *testing.T) {
	const window, stagger = time.Second, 100 * time.Millisecond
	r := newRig(t, 2, func(c *config.Config) { c.CollectionWindow = window })
	defer r.env.Close()
	calls := r.watchWindows()
	r.requestAll(1, lockmgr.ModeExclusive, 1, 2, 3, 4) // the holder: every later request groups
	r.drain(1, 100*time.Millisecond)
	r.requestAll(2, lockmgr.ModeExclusive, 3, 1, 2)
	r.env.Run(100*time.Millisecond + stagger)
	r.requestAll(2, lockmgr.ModeExclusive, 4)
	r.env.Run(5 * time.Second)

	got := *calls
	if len(got) != 4 {
		t.Fatalf("%d windows closed, want 4: %+v", len(got), got)
	}
	for i, obj := range []lockmgr.ObjectID{3, 1, 2, 4} {
		c := got[i]
		if c.obj != obj || c.open == nil || c.open.Len() != 1 || c.open.Entries[0].Client != 2 {
			t.Fatalf("window %d sealed object %d (list %+v), want object %d's list of client 2", i, c.obj, c.open, obj)
		}
		if o := r.srv.find(obj); o.open != nil || o.sealed != c.open {
			t.Fatalf("object %d: open %v, sealed %v after its window closed", obj, o.open, o.sealed)
		}
	}
	if got[0].at != got[1].at || got[1].at != got[2].at || got[3].at-got[2].at != stagger {
		t.Fatalf("windows closed at %v, %v, %v, %v; want three at once and one %v later",
			got[0].at, got[1].at, got[2].at, got[3].at, stagger)
	}
	if opened := got[0].at - window; opened < 100*time.Millisecond || opened > 100*time.Millisecond+stagger {
		t.Fatalf("first window opened at %v, want within the round trip of the request sent at 100ms", opened)
	}
}

// TestEarlySealReopenedWindow pins a behaviour kept on purpose: a list
// sealed early (its object came free) leaves its window's firing
// pending, and a request that reopens the object's list before that
// firing has the new list sealed then — early, at the old window's time
// — while the new window, when it closes, finds nothing open.
func TestEarlySealReopenedWindow(t *testing.T) {
	const window = time.Second
	r := newRig(t, 3, func(c *config.Config) { c.CollectionWindow = window })
	defer r.env.Close()
	calls := r.watchWindows()
	const obj = 5
	r.request(1, obj, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, 100*time.Millisecond)
	r.request(2, obj, lockmgr.ModeExclusive, time.Minute) // opens the window
	if msgs := r.drain(1, 300*time.Millisecond); len(msgs) != 1 || msgs[0].Kind != netsim.KindRecall {
		t.Fatalf("holder messages = %+v, want one recall", msgs)
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: obj, HasData: true, Version: 1})
	if g := r.grantTo(2, 500*time.Millisecond); g.Fwd != nil {
		t.Fatalf("client 2's grant carries a forward list %+v, want the early-sealed single entry", g.Fwd)
	}
	if len(*calls) != 0 {
		t.Fatalf("the early seal went through the clock: %+v", *calls)
	}
	r.request(3, obj, lockmgr.ModeExclusive, time.Minute) // reopens, client 2 holding
	r.env.Run(900 * time.Millisecond)
	reopened := r.srv.find(obj).open
	if reopened == nil || reopened.Entries[0].Client != 3 {
		t.Fatalf("open list = %+v, want client 3's", reopened)
	}
	r.env.Run(3 * time.Second)

	got := *calls
	if len(got) != 2 {
		t.Fatalf("%d windows closed, want 2: %+v", len(got), got)
	}
	if got[0].open != reopened || got[0].at >= 500*time.Millisecond+window {
		t.Fatalf("first firing at %v sealed %+v, want client 3's list at the first window's close", got[0].at, got[0].open)
	}
	if got[1].open != nil || got[1].at-got[0].at < 400*time.Millisecond {
		t.Fatalf("second firing at %v found %+v open, want nothing, at the second window's close", got[1].at, got[1].open)
	}
	if o := r.srv.find(obj); o.sealed != reopened {
		t.Fatalf("sealed = %+v, want client 3's list (blocked by client 2)", o.sealed)
	}
}

// TestAuditForwardNoAllocs: the invariant monitor audits the forward
// lists at the end of a run, and a touched object's lists after every
// event, so neither audit may allocate with a list still collecting, one
// sealed and one in flight.
func TestAuditForwardNoAllocs(t *testing.T) {
	r := newRig(t, 3, func(c *config.Config) { c.CollectionWindow = time.Second })
	defer r.env.Close()
	// Object 3 in flight: two writers wait behind client 1 and the
	// return starts their migration.
	r.requestAll(1, lockmgr.ModeExclusive, 1, 2, 3)
	r.drain(1, 100*time.Millisecond)
	r.request(2, 3, lockmgr.ModeExclusive, time.Minute)
	r.request(3, 3, lockmgr.ModeExclusive, 2*time.Minute)
	r.drain(1, 300*time.Millisecond)
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 3, HasData: true, Version: 1})
	// Object 2 sealed: its window closes with client 1 still holding.
	r.request(2, 2, lockmgr.ModeExclusive, time.Minute)
	r.env.Run(2 * time.Second)
	// Object 1 open: its window is still collecting.
	r.request(2, 1, lockmgr.ModeExclusive, time.Minute)
	r.env.Run(2500 * time.Millisecond)

	s := r.srv
	if o := s.find(3); o.inflight == nil {
		t.Fatal("object 3 is not in flight")
	}
	if o := s.find(2); o.sealed == nil {
		t.Fatal("object 2 has no sealed list")
	}
	if _, n := s.lists(1); n != 1 || s.find(1).sealed != nil {
		t.Fatal("object 1 has no list collecting")
	}
	audit := func() {
		if err := s.AuditForward(); err != nil {
			panic(err)
		}
		for obj := lockmgr.ObjectID(1); obj <= 3; obj++ {
			if err := s.AuditForwardOf(obj); err != nil {
				panic(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, audit); n != 0 {
		t.Errorf("AuditForward allocates %v per run, want 0", n)
	}
}
