package client

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/cache"
	"siteselect/internal/loadshare"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// TestPerSiteStructSizes pins what one parked client weighs in structs
// it owns: at a million clients every word here is 8 MB. A Client is the
// whole parked site — its cache, executor slots, local lock table and
// dispatcher are fields, not objects it points at — so its ceiling is the
// sum of its parts' ceilings: 304 for the rest of the Client (what keeps
// a by-value config.Config, 424 B, from coming back), 80 the cache, 56
// the resource, 152 the lock table, 176 the dispatcher. It reads 768
// (792 when it listed its own transactions in flight, which the
// system's txn.Maker lists now; 848 when the cache kept three hit
// counters, the resource a grant counter and the client two ship
// counters, none of which anything read;
// 864 when the resource also kept busy-time totals nobody asked for; 912
// when it kept a client-wide waiter index and three stores keyed by
// object or shipped subtask, where it now holds one list of object
// records and one of fanouts; 968 when it kept free lists of
// transaction machines and of their exchange records and a pointer to
// decision scratch of its own, where
// the system's stock now holds all three; 1 032 when the cache and the
// table each kept free lists too and the client two scratch maps). The
// dispatcher's ceiling is what keeps a held netsim.Message out of a
// machine every client owns; the cache's and the lock table's (they read
// 80 and 144; the table 296 B with its four per-owner maps, three free
// lists and the wrapper that woke its waiters) keep a free list or a
// second container per owner out of what every client holds. The
// arrival stream is the Client itself, as a kernel event hook
// (Client.RunEvent), so a parked site has no part allocated on its own.
func TestPerSiteStructSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, ceil uintptr
	}{
		{"Client", unsafe.Sizeof(Client{}), 304 + 80 + 56 + 152 + 176},
		{"cache.Cache", unsafe.Sizeof(cache.Cache{}), 80},
		{"sim.Resource", unsafe.Sizeof(sim.Resource{}), 56},
		{"lockmgr.Table", unsafe.Sizeof(lockmgr.Table{}), 152},
		{"dispMachine", unsafe.Sizeof(dispMachine{}), 176},
	} {
		if c.got > c.ceil {
			t.Errorf("unsafe.Sizeof(%s) = %d B, ceiling %d B", c.name, c.got, c.ceil)
		}
	}
}

// TestFreshMachineScratchSizedOnce: the two vectors a transaction
// machine fills on its first materialization — the missing accesses of
// the presence scan, the pinned entries of the commit — are sized once,
// for every access, not doubled up from nil (1 → 2 → 4 for the four
// objects of a population-tier transaction), in a block of the stock's:
// one another machine handed back, or carved from a chunk, so a hundred
// fresh machines cost a chunk or two, not an array each. Where every
// transaction runs on a fresh machine that is per transaction, not
// warm-up.
func TestFreshMachineScratchSizedOnce(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	c := r.cl
	tx := &txn.Transaction{ID: 203, Deadline: time.Hour,
		Ops: []txn.Op{{Obj: 31}, {Obj: 32, Write: true}, {Obj: 33}, {Obj: 34}}}

	m := new(txnMachine)
	scan := func() {
		*m = txnMachine{c: c, t: tx, ops: tx.Ops, pc: tsScan}
		if m.stepScan() || len(m.missing) != len(tx.Ops) {
			panic("presence scan did not report every access missing")
		}
	}
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Errorf("a fresh machine's presence scan allocates %v, want 0", n)
	}

	for _, op := range tx.Ops {
		r.seed(op.Obj, lockmgr.ModeExclusive, false, 1)
	}
	pin := func() {
		var entries []*cache.Entry
		if !c.pinAll(tx.Ops, &entries) || len(entries) != len(tx.Ops) {
			panic("cached access set not pinned")
		}
		for _, e := range entries {
			c.objects.Unpin(e)
		}
	}
	if n := testing.AllocsPerRun(100, pin); n != 0 {
		t.Errorf("pinning into fresh scratch allocates %v, want 0", n)
	}
}

// TestFirmRoundBookkeepingZeroAlloc pins a steady-state firm-request
// round at zero allocations, messages included: opening the machine's
// exchange, wait and waiter registration, the two firm requests
// sent as pooled records filled in place, the grants delivered through
// the dispatcher — which looks the waits up, clears them, installs the
// copies and hands each grant's record back — and the exchange's
// close.
func TestFirmRoundBookkeepingZeroAlloc(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	c := r.cl
	tx := &txn.Transaction{ID: 201, Deadline: time.Hour}
	m := &txnMachine{c: c, t: tx, missing: []txn.Op{{Obj: 7}, {Obj: 8, Write: true}}}

	// fetch sends the firm request for the access at the cursor and plays
	// the server: receive the request, release its record, ship the
	// grant in another.
	fetch := func() {
		op := m.missing[m.seqIdx]
		obj, mode := op.Obj, op.Mode()
		c.register(&m.pt, obj, mode, 0)
		m.pt.kind = skSeq
		m.resend()
		r.env.RunAll()
		msg, ok := r.toSrv.TryGet()
		if q, isReq := msg.Payload.(*proto.ObjRequest); !ok || !isReq || q.Op != proto.OpCommit || len(q.Objs) != 1 || q.Objs[0] != obj || q.Txn != tx.ID {
			panic("firm request not sent")
		}
		c.stock.Payloads.Release(msg.Payload)
		g := c.stock.Payloads.GrantMsg.New()
		g.Grants = append(g.Grants, proto.ObjGrant{Obj: obj, Mode: mode, Version: 1})
		r.inject(netsim.KindObjectShip, g)
		r.env.RunAll()
		if m.pt.findWait(obj) >= 0 || c.phase(obj) != phIdle {
			panic("grant did not clear the wait")
		}
	}
	round := func() {
		if pt := m.openPending(); c.findPending(tx.ID) != pt {
			panic("pending record lost")
		}
		for m.seqIdx = range m.missing {
			fetch()
		}
		m.closePending()
	}
	round() // warm the pools and cache the two copies
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("a firm-request round allocates %v per run, want 0", n)
	}
}

// parkForever parks its task on a signal nobody fires.
type parkForever struct {
	t *sim.Task
	s *sim.Signal
}

func (p parkForever) Resume() { p.t.Wait(p.s) }

// TestSelectionRoundBookkeepingZeroAlloc pins the load-sharing rounds at
// one server at zero allocations, the decisions included: a tentative
// probe answered by a Locations reply, H2 over it, the commit round and
// its grants; then a location/load query, its Locations reply, H2 again
// and the decomposition it feeds. Each reply is copied out of its payload
// record — which goes back to the pool — into arrays the machine's
// exchange keeps, and every decision runs in the system's scratch.
func TestSelectionRoundBookkeepingZeroAlloc(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	c := r.cl
	tx := &txn.Transaction{ID: 202, Deadline: time.Hour, Length: time.Second, Decomposable: true,
		Ops: []txn.Op{{Obj: 7}, {Obj: 8, Write: true}}}
	m := &txnMachine{c: c, t: tx, missing: tx.Ops}
	// chooseSite reads the clock through the task, so the task is
	// spawned; the kernel resumes a stand-in that parks it for good, and
	// the machine itself never runs.
	r.env.Spawn(&m.task, parkForever{&m.task, sim.NewSignal(r.env)})

	// The scripted server fills a pooled record from these every round,
	// as the real one does from its lock table.
	where := []proto.ObjConflict{{Obj: 8, Holders: []netsim.SiteID{2}}}
	loads := []proto.LoadReport{{Client: 2, QueueLen: 1, ATL: time.Second, Valid: true}}
	counts := []proto.SiteCount{{Site: 2, Count: 1}}

	// exchange sends the current request, has the scripted server check
	// what it received, and delivers reply.
	exchange := func(op proto.Op, kind netsim.Kind, reply any) {
		m.resend()
		r.env.RunAll()
		msg, ok := r.toSrv.TryGet()
		if q, isReq := msg.Payload.(*proto.ObjRequest); !ok || !isReq || q.Op != op || len(q.Objs) != 2 {
			panic("request not sent as expected")
		}
		c.stock.Payloads.Release(msg.Payload)
		r.inject(kind, reply)
		r.env.RunAll()
	}
	round := func() {
		pt := m.openPending()
		for _, op := range m.missing {
			c.register(pt, op.Obj, op.Mode(), 0)
		}
		pt.kind = skProbe
		cr := c.stock.Payloads.Locations.New()
		cr.Txn, cr.Loads, cr.DataCounts = tx.ID, append(cr.Loads, loads...), append(cr.DataCounts, counts...)
		cr.Objs, cr.Flat = proto.AppendLocation(cr.Objs, cr.Flat, where[0].Obj, where[0].Holders)
		exchange(proto.OpProbe, netsim.KindLockReply, cr)
		conflicts, loadAt, countAt := c.h2Inputs(pt.replies)
		if !pt.answered || conflicts[0].Obj != 8 || conflicts[0].Holders[0] != 2 || !loadAt[2].Valid || countAt[2] != 1 {
			panic("conflict reply not copied out")
		}
		if d := m.chooseSite(loadshare.Params{Conflicts: conflicts, Loads: loadAt, DataCounts: countAt,
			RequireImprovement: true, MinShipData: 1}); !d.Ship || d.Target != 2 {
			panic("H2 did not pick the conflicting holder")
		}
		pt.kind = skCommit
		g := c.stock.Payloads.GrantMsg.New()
		g.Grants = append(g.Grants,
			proto.ObjGrant{Obj: 7, Mode: lockmgr.ModeShared, Version: 1},
			proto.ObjGrant{Obj: 8, Mode: lockmgr.ModeExclusive, Version: 1})
		exchange(proto.OpCommit, netsim.KindObjectShip, g)
		if len(pt.waits) != 0 {
			panic("grants did not clear the waits")
		}
		m.closePending()

		pt = m.openPending()
		pt.kind = skLocate
		lr := c.stock.Payloads.Locations.New()
		lr.Txn, lr.Loads = tx.ID, append(lr.Loads, loads...)
		lr.Objs, lr.Flat = proto.AppendLocation(lr.Objs, lr.Flat, where[0].Obj, where[0].Holders)
		exchange(proto.OpLocate, netsim.KindLoadReply, lr)
		locs, loadAt, _ := c.h2Inputs(pt.replies)
		if !pt.answered || locs[0].Obj != 8 || locs[0].Holders[0] != 2 || !loadAt[2].Valid {
			panic("load reply not copied out")
		}
		if d := m.chooseSite(loadshare.Params{Locations: locs, Loads: loadAt}); !d.Ship || d.Target != 2 {
			panic("H2 did not pick the site holding the data")
		}
		sc := c.scratch()
		sc.groups.ByLocation(c.id, tx.Ops, locs)
		if subs := tx.Decompose(sc.groups.Of, 4, &sc.parts); len(subs) != 2 || sc.groups.Site[subs[1].Index] != 2 {
			panic("transaction not split between the origin and the holder")
		}
		m.closePending()
	}
	round() // warm the pools and cache the two copies
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("a probe, commit and load-query round allocates %v per run, want 0", n)
	}
}

// TestRecycledMachineCarriesNothingAcrossSites: a machine record that
// site A hands back to the system's stock and site B takes comes to B
// as a fresh one would, but for the arrays of its exchange's vectors:
// every slice is empty, and every other field — walked by reflection,
// so one added later is covered — holds what spawnTxn gives a zeroed
// record, nothing of what A left in it. (The task is sim's: Detach
// leaves it spent and Spawn arms it.)
func TestRecycledMachineCarriesNothingAcrossSites(t *testing.T) {
	stock := new(Stock)
	a, b := newRigOn(t, nil, stock), newRigOn(t, nil, stock)
	defer a.env.Close()
	defer b.env.Close()

	m := stock.machines.New()
	var dirty func(v reflect.Value, top bool)
	dirty = func(v reflect.Value, top bool) {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // settable, exported or not
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if !top || v.Type().Field(i).Name != "task" {
					dirty(v.Field(i), false)
				}
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 4))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64, reflect.Uint8:
			v.Set(reflect.ValueOf(3).Convert(v.Type()))
		case reflect.Float64:
			v.SetFloat(3)
		default:
			t.Fatalf("txnMachine holds a %v: teach this test to dirty and compare it", v.Type())
		}
	}
	dirty(reflect.ValueOf(m).Elem(), true)
	a.cl.recycleTxn(m)

	tx := b.newTxn([]txn.Op{{Obj: 1}}, time.Minute)
	b.cl.spawnTxn(tx, nil, enOrigin, nil)
	if m.c != b.cl {
		t.Fatal("site B's transaction did not run in the record site A handed back")
	}
	want := txnMachine{c: b.cl, t: tx, origin: true, owns: true, pc: tsSubmit}
	var same func(path string, got, want reflect.Value)
	same = func(path string, got, want reflect.Value) {
		switch got.Kind() {
		case reflect.Struct:
			for i := 0; i < got.NumField(); i++ {
				if name := got.Type().Field(i).Name; path+name != "task" {
					same(path+"."+name, got.Field(i), want.Field(i))
				}
			}
		case reflect.Slice:
			if got.Len() != 0 {
				t.Errorf("txnMachine%s has %d elements after reuse, want none", path, got.Len())
			}
		case reflect.Pointer:
			if got.Pointer() != want.Pointer() {
				t.Errorf("txnMachine%s still points at what site A left", path)
			}
		default:
			if !got.Equal(want) {
				t.Errorf("txnMachine%s = %v after reuse, want %v", path, got, want)
			}
		}
	}
	same("", reflect.ValueOf(m).Elem(), reflect.ValueOf(&want).Elem())
	if cap(m.spec) != 4 || cap(m.pt.waits) != 4 {
		t.Errorf("reuse dropped the exchange's arrays: cap(spec) %d, cap(pt.waits) %d, want 4 each",
			cap(m.spec), cap(m.pt.waits))
	}
	// The access-sized vectors went back to the stock as blocks, for the
	// next machine to take at the length it needs.
	if cap(m.missing)+cap(m.lockOps)+cap(m.entries)+cap(m.results) != 0 || !reflect.ValueOf(m.locks).IsZero() {
		t.Errorf("reuse kept an access-sized block: cap(missing) %d, cap(lockOps) %d, cap(entries) %d, cap(results) %d",
			cap(m.missing), cap(m.lockOps), cap(m.entries), cap(m.results))
	}
}
