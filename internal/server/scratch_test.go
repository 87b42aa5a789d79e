package server

import (
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/txn"
)

// TestGrantDispatchBookkeepingZeroAlloc pins the server's lock round at
// zero allocations in steady state, messages included. The first half is
// the bookkeeping alone: pooled requests, dense entry lookup, pooled
// wait-edge maps, the generation-stamped deadlock scratch. The second
// half drives the connection handlers with a contended exchange —
// request and ship, a second request that queues and recalls, the
// holder's return with data, the grant admitted from the queue and
// shipped, the release — every payload a record of the rig's pool that
// the receiving side hands back, the queued request's tag a plain
// integer, the admitted grants read from the table's shared list.
func TestGrantDispatchBookkeepingZeroAlloc(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) { c.UseForwardLists = false })
	defer r.env.Close()
	s := r.srv

	bookkeeping := func() {
		// Uncontended grant and release — the dominant hot path.
		q := s.reqs.New()
		q.Obj, q.Owner, q.Mode = 41, 1, lockmgr.ModeExclusive
		q.Deadline, q.Tag = time.Minute, 7
		if out, _ := s.locks.Lock(q); out != lockmgr.Granted {
			panic("free object not granted")
		}
		s.reqs.Put(q) // granted requests are never retained by the table

		// Contended round: a waiter queues (wait-for edges, deadlock
		// scan) and cancels before the holder releases.
		h := s.reqs.New()
		h.Obj, h.Owner, h.Mode = 42, 1, lockmgr.ModeExclusive
		h.Deadline, h.Tag = time.Minute, 8
		s.locks.Lock(h)
		s.reqs.Put(h)
		w := s.reqs.New()
		w.Obj, w.Owner, w.Mode = 42, 2, lockmgr.ModeExclusive
		w.Deadline, w.Tag = time.Minute, 9
		if out, _ := s.locks.Lock(w); out != lockmgr.Queued {
			panic("conflicting request not queued")
		}
		s.locks.Cancel(w)
		s.reqs.Put(w)
		s.locks.Release(42, 1)
		s.locks.Release(41, 1)
	}

	// The scripted clients: request sends a pooled firm request, giveBack
	// a pooled return, and expect plays the client's dispatch loop —
	// receive one message, check it, release its record.
	var id txn.ID
	var version int64
	request := func(from int) {
		id++
		q := s.payloads.CommitRequest.New()
		q.Client, q.Txn, q.Deadline = netsim.SiteID(from), id, r.env.Now()+time.Minute
		q.Objs, q.Modes = append(q.Objs, 43), append(q.Modes, lockmgr.ModeExclusive)
		r.send(from, netsim.KindObjectRequest, q)
	}
	giveBack := func(from int, hasData bool) {
		ret := s.payloads.ObjReturn.New()
		ret.Client, ret.Obj, ret.HasData, ret.Version = netsim.SiteID(from), 43, hasData, version
		r.send(from, netsim.KindObjectReturn, ret)
	}
	expect := func(at int, kind netsim.Kind) {
		r.env.Run(r.env.Now() + time.Second)
		msg, ok := r.inbox[at].TryGet()
		if !ok || msg.Kind != kind {
			panic("scripted client did not receive its " + kind.String())
		}
		if g, isGrant := msg.Payload.(*proto.GrantMsg); isGrant && (len(g.Grants) != 1 || g.Grants[0].Txn != id || g.Grants[0].Version != version) {
			panic("grant carries the wrong transaction or version")
		}
		s.payloads.Release(msg.Payload)
	}
	exchange := func() {
		request(1)
		expect(1, netsim.KindObjectShip)
		request(2) // queues behind client 1's lock
		expect(1, netsim.KindRecall)
		version++
		giveBack(1, true) // page install, then the queued grant ships
		expect(2, netsim.KindObjectShip)
		giveBack(2, false) // voluntary release: the entry retires
	}

	round := func() { bookkeeping(); exchange() }
	round() // warm the pools
	round()
	if n := testing.AllocsPerRun(300, round); n != 0 {
		t.Errorf("a lock round with its messages allocates %v per run, want 0", n)
	}
	if s.RecallsSent < 300 || s.GrantsShipped < 600 {
		t.Fatalf("exchange did not run: %d recalls, %d grants", s.RecallsSent, s.GrantsShipped)
	}
	if err := s.AuditLocks(); err != nil {
		t.Fatal(err)
	}
}

// TestConnMachineSize pins the per-connection handler: the server keeps
// one per attached client, so it holds a message's payload and a
// borrowed install op, never a 2 KB page buffer or an op by value.
func TestConnMachineSize(t *testing.T) {
	if got := unsafe.Sizeof(connMachine{}); got > 256 {
		t.Errorf("unsafe.Sizeof(connMachine) = %d B, ceiling 256 B", got)
	}
}

// scratchBase returns the backing-array address of a scratch slice so
// tests can assert that two flushes shared one buffer.
func scratchBase[T any](s []T) *T {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][0]
}

// TestFlushScratchReuse: consecutive batch-window flushes must reuse
// the server's ship/recall intent buffers and the grouping mark — the
// flush bracket allocates its scratch once and recycles it instead of
// rebuilding per-flush maps.
func TestFlushScratchReuse(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) {
		c.UseForwardLists = false
		c.BatchWindow = 5 * time.Millisecond
	})
	defer r.env.Close()

	// Round one: two grants in one window prime the ship scratch.
	r.request(1, 1, lockmgr.ModeExclusive, time.Minute)
	r.request(1, 2, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, time.Second)
	ships := scratchBase(r.srv.shipIntents)
	mark := scratchBase(r.srv.flushMark)
	if ships == nil || mark == nil {
		t.Fatal("first flush left no ship scratch behind")
	}

	// Round two: same fan-out, different destination; no new scratch
	// may be allocated.
	r.request(2, 3, lockmgr.ModeExclusive, time.Minute)
	r.request(2, 4, lockmgr.ModeExclusive, time.Minute)
	r.drain(2, 2*time.Second)
	if got := scratchBase(r.srv.shipIntents); got != ships {
		t.Error("second flush rebuilt the ship intent buffer")
	}
	if got := scratchBase(r.srv.flushMark); got != mark {
		t.Error("second flush rebuilt the grouping mark")
	}

	// Rounds three and four each demand an object the other client
	// holds, so each flush sends one recall.
	r.request(2, 1, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, 3*time.Second)
	recalls := scratchBase(r.srv.recallIntents)
	if recalls == nil {
		t.Fatal("recall flush left no scratch behind")
	}
	r.request(2, 2, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, 4*time.Second)
	if got := scratchBase(r.srv.recallIntents); got != recalls {
		t.Error("second recall flush rebuilt the recall intent buffer")
	}
}
