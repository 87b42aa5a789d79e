package server

import (
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/txn"
)

// TestGrantDispatchBookkeepingZeroAlloc pins the server's converted
// lock-round bookkeeping at zero allocations in steady state: pooled
// requests, dense entry lookup, pooled wait-edge maps, and the
// generation-stamped deadlock scratch. Message payloads and contended
// grant lists are excluded — those escape to the network by design.
func TestGrantDispatchBookkeepingZeroAlloc(t *testing.T) {
	r := newRig(t, 2, nil)
	defer r.env.Close()
	s := r.srv

	round := func() {
		// Uncontended grant and release — the dominant hot path.
		q := s.newReq()
		q.Obj, q.Owner, q.Mode = 41, 1, lockmgr.ModeExclusive
		q.Deadline, q.Tag = time.Minute, txn.ID(7)
		if out, _ := s.locks.Lock(q); out != lockmgr.Granted {
			panic("free object not granted")
		}
		s.freeReq(q) // granted requests are never retained by the table

		// Contended round: a waiter queues (wait-for edges, deadlock
		// scan) and cancels before the holder releases.
		h := s.newReq()
		h.Obj, h.Owner, h.Mode = 42, 1, lockmgr.ModeExclusive
		h.Deadline, h.Tag = time.Minute, txn.ID(8)
		s.locks.Lock(h)
		s.freeReq(h)
		w := s.newReq()
		w.Obj, w.Owner, w.Mode = 42, 2, lockmgr.ModeExclusive
		w.Deadline, w.Tag = time.Minute, txn.ID(9)
		if out, _ := s.locks.Lock(w); out != lockmgr.Queued {
			panic("conflicting request not queued")
		}
		s.locks.Cancel(w)
		s.freeReq(w)
		s.locks.Release(42, 1)
		s.locks.Release(41, 1)
	}
	round() // warm the pools
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("lock-round bookkeeping allocates %v per run, want 0", n)
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
