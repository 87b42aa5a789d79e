package client

import (
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/config"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/txn"
)

// TestStore runs the put-replace / take-missing script the client's
// generic store was pinned with against what replaced its three
// instances: the recall slot and the migration slot of an object's
// record, and the parent machine a remote subtask's result is found
// through. A second put replaces the first, a take of what is not there
// finds nothing, and a record goes back to the stock once both its
// slots are empty — not before.
func TestStore(t *testing.T) {
	recall := func(n int) deferredRecall {
		return deferredRecall{r: proto.Recall{Obj: lockmgr.ObjectID(n)}, from: netsim.SiteID(-n)}
	}
	t.Run("deferred", func(t *testing.T) {
		r := newRig(t, nil)
		defer r.env.Close()
		c := r.cl
		if d, ok := c.takeRecall(7); ok || d != (deferredRecall{}) || len(c.objs) != 0 {
			t.Fatalf("take with no record = %v, %v, leaving %d records", d, ok, len(c.objs))
		}
		for i, obj := range []lockmgr.ObjectID{7, 8, 9} {
			c.parkRecall(obj, recall(i).r, recall(i).from)
		}
		c.parkRecall(8, recall(3).r, recall(3).from) // replaces: no second record for 8
		if rec := c.rec(8); len(c.objs) != 3 || rec.recall != recall(3) {
			t.Fatalf("after put-replace: %d records, object 8 holds %v; want 3, %v", len(c.objs), rec.recall, recall(3))
		}
		if d, ok := c.takeRecall(7); !ok || d != recall(0) || len(c.objs) != 2 || c.rec(7) != nil {
			t.Fatalf("take = %v, %v leaving %d records; want %v and object 7's record gone", d, ok, len(c.objs), recall(0))
		}
		if d, ok := c.takeRecall(7); ok || d != (deferredRecall{}) {
			t.Fatalf("take of a missing recall = %v, %v", d, ok)
		}
		c.takeRecall(8)
		c.takeRecall(9)
		if len(c.objs) != 0 {
			t.Fatalf("%d records left after taking every recall", len(c.objs))
		}
	})
	t.Run("migrations", func(t *testing.T) {
		r := newRig(t, nil)
		defer r.env.Close()
		c := r.cl
		l, l2 := forward.NewList(8), forward.NewList(8)
		c.recFor(8).fwd = l
		c.recFor(8).fwd = l2 // replaces
		c.parkRecall(8, recall(1).r, recall(1).from)
		if rec := c.rec(8); len(c.objs) != 1 || rec.fwd != l2 || c.phase(8)&phMigrating == 0 {
			t.Fatalf("after put-replace: %d records, object 8 migrates under %p, want one under %p", len(c.objs), rec.fwd, l2)
		}
		// The migration slot keeps a record whose recall is taken.
		if d, ok := c.takeRecall(8); !ok || d != recall(1) || c.phase(8) != phMigrating {
			t.Fatalf("take of object 8's recall = %v, %v, leaving it %v; want migrating", d, ok, c.phase(8))
		}
		rec := c.rec(8)
		rec.fwd = nil
		c.settle(rec)
		if len(c.objs) != 0 || c.phase(8) != phIdle || c.migrating(8) {
			t.Fatalf("%d records left after emptying every slot", len(c.objs))
		}
	})
	t.Run("shipWaits", func(t *testing.T) {
		r := newRig(t, nil)
		defer r.env.Close()
		c := r.cl
		parent, other, shipped := r.newTxn(nil, time.Minute), r.newTxn(nil, time.Minute), r.newTxn(nil, time.Minute)
		m := &txnMachine{c: c, t: parent, results: []*shipWait{{}, {}}}
		for _, w := range m.results {
			w.sig.Init(r.env)
		}
		enlist(&c.fanouts, m, &c.stock.fanLists)
		c.onTxnResult(proto.TxnResult{T: parent, SubIndex: 1, IsSub: true, Committed: true})
		c.onTxnResult(proto.TxnResult{T: parent, SubIndex: 1, IsSub: true}) // replaces
		if w := m.results[1]; !w.done || w.committed || m.results[0].done {
			t.Fatalf("after put-replace: subtask results %+v, %+v; want the second done, uncommitted", *m.results[0], *w)
		}
		shipped.Status = txn.StatusCommitted
		c.onTxnResult(proto.TxnResult{T: other, SubIndex: 0, IsSub: true, Committed: true}) // no such fanout
		c.onTxnResult(proto.TxnResult{T: shipped, SubIndex: -1, Committed: true})           // a whole transaction's
		if m.results[0].done {
			t.Fatal("a result for another transaction, or for a whole one, reached subtask 0")
		}
		if live := c.gen.Maker().Listed(); len(live) != 2 || slices.Contains(live, shipped) {
			t.Fatalf("a whole transaction's result left %d listed, the shipped one among them: %v", len(live), slices.Contains(live, shipped))
		}
		unlist(&c.fanouts, m, &c.stock.fanLists)
		if len(c.fanouts) != 0 {
			t.Fatalf("%d fanouts left", len(c.fanouts))
		}
	})
}

// until steps the rig's clock one event at a time until cond holds.
func (r *rig) until(cond func() bool) {
	r.t.Helper()
	for !cond() {
		if !r.env.Step() {
			r.t.Fatal("no events left before the condition held")
		}
	}
}

// returns drains the client's messages to the server already delivered
// to its connection queue, without running the clock, and returns the
// object returns among them.
func (r *rig) returns() []*proto.ObjReturn {
	var out []*proto.ObjReturn
	for {
		m, ok := r.toSrv.TryGet()
		if !ok {
			return out
		}
		if ret, isRet := m.Payload.(*proto.ObjReturn); isRet {
			out = append(out, ret)
		}
	}
}

// TestClientObjectLifecycle steps every edge of objPhase that the client
// reaches through real messages on the rig, and reads the phase after
// each. The phase is derived from the object's record and cache entry,
// so what this test reads is what the handlers will act on.
func TestClientObjectLifecycle(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.ClientMemory, c.ClientDisk = 2, 0 })
	defer r.env.Close()
	c := r.cl
	at := func(obj lockmgr.ObjectID, want objPhase, edge string) {
		t.Helper()
		if got := c.phase(obj); got != want {
			t.Fatalf("%s: object %d is %v, want %v", edge, obj, got, want)
		}
	}
	// grant delivers g and steps only until it is cached, before the
	// transaction it wakes has run; recall delivers rc and runs the clock
	// a millisecond, past its handling and anything sent in answer.
	grant := func(g proto.ObjGrant) {
		kind := netsim.KindObjectShip
		if g.Fwd != nil {
			kind = netsim.KindClientForward
		}
		r.inject(kind, g)
		r.until(func() bool { return c.objects.Peek(g.Obj) != nil })
	}
	recall := func(rc proto.Recall) {
		r.inject(netsim.KindRecall, rc)
		r.env.Run(r.env.Now() + time.Millisecond)
	}
	pinned := func(obj lockmgr.ObjectID) func() bool {
		return func() bool { e := c.objects.Peek(obj); return e != nil && e.Pinned() }
	}
	finish := func(tx *txn.Transaction) {
		t.Helper()
		r.env.Run(r.env.Now() + 10*time.Second)
		if tx.Status != txn.StatusCommitted {
			t.Fatalf("transaction %d: status %v", tx.ID, tx.Status)
		}
	}
	write := func(obj lockmgr.ObjectID) *txn.Transaction {
		tx := r.newTxn([]txn.Op{{Obj: obj, Write: true}}, time.Minute)
		c.submitAsync(tx)
		r.env.Run(r.env.Now() + time.Millisecond) // its probe goes out
		r.returns()
		return tx
	}

	// idle → requested → (grant) idle.
	tx := write(10)
	at(10, phRequested, "request")
	grant(proto.ObjGrant{Obj: 10, Mode: lockmgr.ModeExclusive, Version: 1})
	at(10, phIdle, "grant")
	finish(tx)

	// A recall on a pinned copy parks; the transaction's release answers it.
	tx = r.newTxn([]txn.Op{{Obj: 10}}, time.Minute)
	c.submitAsync(tx)
	r.until(pinned(10))
	recall(proto.Recall{Obj: 10})
	at(10, phParkedPinned, "recall on a pinned copy")
	if rets := r.returns(); len(rets) != 0 {
		t.Fatalf("recall on a pinned copy answered at once: %+v", rets)
	}
	finish(tx)
	at(10, phIdle, "release answers the parked recall")
	if rets := r.returns(); len(rets) != 1 || rets[0].Obj != 10 || !rets[0].HasData || rets[0].Version != 2 {
		t.Fatalf("answer to the parked recall = %+v", rets)
	}

	// A recall ahead of its grant — no copy, a transaction waiting —
	// parks; the grant wakes the transaction, whose release answers it.
	tx = write(20)
	recall(proto.Recall{Obj: 20, HolderMode: lockmgr.ModeExclusive})
	at(20, phRequested|phParkedNoCopy, "recall ahead of its grant")
	grant(proto.ObjGrant{Obj: 20, Mode: lockmgr.ModeExclusive, Version: 1})
	at(20, phParkedClear, "the grant it refers to")
	r.until(pinned(20))
	at(20, phParkedPinned, "the woken transaction pins the copy")
	if rets := r.returns(); len(rets) != 0 {
		t.Fatalf("recall answered before the transaction finished: %+v", rets)
	}
	finish(tx)
	at(20, phIdle, "release answers it")
	if rets := r.returns(); len(rets) != 1 || rets[0].Obj != 20 || rets[0].Version != 2 || c.objects.Peek(20) != nil {
		t.Fatalf("answer = %+v, copy kept %v", rets, c.objects.Peek(20) != nil)
	}

	// A recall naming EL on an SL copy refers to an upgrade on the wire.
	// Evicting the copy answers it; the transaction still waits.
	r.seed(30, lockmgr.ModeShared, false, 1)
	tx = write(30)
	recall(proto.Recall{Obj: 30, HolderMode: lockmgr.ModeExclusive})
	at(30, phRequested|phParkedMode, "recall naming a mode the copy lacks")
	grant(proto.ObjGrant{Obj: 31, Mode: lockmgr.ModeShared, Version: 1})
	grant(proto.ObjGrant{Obj: 32, Mode: lockmgr.ModeShared, Version: 1}) // evicts 30, the LRU copy
	at(30, phRequested, "eviction answers the parked recall")
	r.env.Run(r.env.Now() + time.Millisecond)
	if rets := r.returns(); len(rets) != 1 || rets[0].Obj != 30 || rets[0].Epoch != 1 || c.objects.Peek(30) != nil {
		t.Fatalf("eviction's answer = %+v, copy kept %v", rets, c.objects.Peek(30) != nil)
	}
	r.env.Run(r.env.Now() + 2*time.Minute) // the upgrade never comes: the transaction gives up
	at(30, phIdle, "the waiting transaction's deadline")

	// A migration hop: the object stays pinned for the hop while the
	// transaction it woke runs, then moves on — without a copy behind it
	// when a writer is next, with an SL copy retained when only readers
	// follow. A recall arriving mid-migration parks on the migration pin
	// and is answered with a release once the object has moved on.
	for _, next := range []lockmgr.Mode{lockmgr.ModeExclusive, lockmgr.ModeShared} {
		obj := lockmgr.ObjectID(40 + next)
		tx = write(obj)
		fwd := forward.NewList(obj)
		fwd.Insert(forward.Entry{Client: 2, Mode: next, Deadline: time.Hour, Txn: 99})
		grant(proto.ObjGrant{Obj: obj, Mode: lockmgr.ModeExclusive, Version: 1, Fwd: fwd})
		at(obj, phMigrating, "migration hop")
		finish(tx)
		at(obj, phIdle, "forwarded")
		hop, ok := r.peer.TryGet()
		if !ok || hop.Payload.(*proto.GrantMsg).Grants[0].Version != 2 {
			t.Fatalf("hop to the next entry = %+v", hop)
		}
		if e := c.objects.Peek(obj); (next == lockmgr.ModeShared) != (e != nil && e.Mode() == lockmgr.ModeShared) {
			t.Fatalf("next entry %v: copy left behind %+v", next, e)
		}
	}
	tx = write(50)
	fwd := forward.NewList(50)
	fwd.Insert(forward.Entry{Client: 2, Mode: lockmgr.ModeShared, Deadline: time.Hour, Txn: 99})
	grant(proto.ObjGrant{Obj: 50, Mode: lockmgr.ModeExclusive, Version: 1, Fwd: fwd})
	recall(proto.Recall{Obj: 50})
	at(50, phMigrating|phParkedPinned, "recall mid-migration")
	finish(tx)
	at(50, phIdle, "forwarded, recall released")
	if rets := r.returns(); len(rets) != 1 || rets[0].HasData || c.objects.Peek(50) != nil {
		t.Fatalf("answer to the mid-migration recall = %+v, copy kept %v", rets, c.objects.Peek(50) != nil)
	}
	r.peer.TryGet()

	// A hop whose epoch a release has overtaken is passed on, uncached.
	recall(proto.Recall{Obj: 60}) // not cached: released, epoch 1
	r.returns()
	run := forward.NewList(60)
	run.ReadRun = true
	run.Insert(forward.Entry{Client: 2, Mode: lockmgr.ModeShared, Deadline: time.Hour, Txn: 99})
	r.inject(netsim.KindClientForward, proto.ObjGrant{Obj: 60, Mode: lockmgr.ModeShared, Version: 1, Fwd: run})
	r.env.Run(r.env.Now() + time.Second)
	at(60, phIdle, "stale-epoch hop")
	if hop, ok := r.peer.TryGet(); !ok || c.objects.Peek(60) != nil {
		t.Fatalf("stale hop passed on: %v (%+v), cached %v", ok, hop, c.objects.Peek(60) != nil)
	}

	// A second recall parked on the same object replaces the first: one
	// answer, the second's. (ROADMAP item 1(c): a lead, not a rule.)
	r.seed(70, lockmgr.ModeExclusive, true, 1)
	tx = r.newTxn([]txn.Op{{Obj: 70}}, time.Minute)
	c.submitAsync(tx)
	r.until(pinned(70))
	recall(proto.Recall{Obj: 70})
	recall(proto.Recall{Obj: 70, DowngradeToShared: true})
	at(70, phParkedPinned, "second recall")
	if len(c.objs) != 1 || !c.rec(70).recall.r.DowngradeToShared {
		t.Fatalf("%d records; object 70 holds %+v, want the second recall", len(c.objs), c.rec(70).recall)
	}
	finish(tx)
	at(70, phIdle, "release answers the second recall")
	if rets := r.returns(); len(rets) != 1 || !rets[0].Downgraded || c.objects.Peek(70).Mode() != lockmgr.ModeShared {
		t.Fatalf("answers = %+v, want one downgrade", rets)
	}
	if len(c.objs) != 0 {
		t.Fatalf("%d records left with nothing in flight", len(c.objs))
	}
}

// TestRecycledObjRecCarriesNothingAcrossSites: an object record that
// site A hands back to the system's stock comes to site B, which takes
// it for another object, as a fresh one would, but for its waiter array:
// every field — walked by reflection, so one added later is covered —
// is zero but the object, and the array holds no pointer A left in it.
func TestRecycledObjRecCarriesNothingAcrossSites(t *testing.T) {
	stock := new(Stock)
	a, b := newRigOn(t, nil, stock), newRigOn(t, nil, stock)
	defer a.env.Close()
	defer b.env.Close()

	rec := stock.objs.New()
	var dirty func(v reflect.Value)
	dirty = func(v reflect.Value) {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // settable, exported or not
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				dirty(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 4, 4))
			for i := 0; i < v.Len(); i++ {
				dirty(v.Index(i))
			}
			v.SetLen(2)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(3)
		default:
			t.Fatalf("objRec holds a %v: teach this test to dirty and compare it", v.Type())
		}
	}
	dirty(reflect.ValueOf(rec).Elem())
	a.cl.recycleObj(rec)

	if got := b.cl.recFor(5); got != rec {
		t.Fatal("site B's object did not take the record site A handed back")
	}
	if want := (objRec{obj: 5, waiters: rec.waiters[:0]}); len(rec.waiters) != 0 || !reflect.DeepEqual(*rec, want) {
		t.Errorf("reused record = %+v, want %+v", *rec, want)
	}
	if w := rec.waiters[:cap(rec.waiters)]; len(w) != 4 || w[0] != nil || w[3] != nil {
		t.Errorf("reuse dropped the waiter array or kept site A's pointers in it: %v", w)
	}
}
