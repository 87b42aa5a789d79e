package batch

import (
	"fmt"
	"testing"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// FuzzBatchSchedule drives a Scheduler over a real lock table with a
// fuzzer-chosen collection window and request stream, and checks the
// three properties the batching layer claims:
//
//   - request conservation: every request entered is resolved to
//     exactly one outcome or still pending (Audit, checked after every
//     flush and at the end, when the pending queue must be empty);
//   - grant exactly-once: no (client, txn, object) request is ever
//     granted twice, whether at the sink or by a later queue promotion;
//   - compatibility of simultaneous grants: all locks granted to
//     distinct owners within one flush of one object are mutually
//     compatible.
//
// The input encodes the window in the first byte and one enqueue op per
// following byte pair: the op's arrival offset, client, mode, object,
// and deadline slack all derive from the bytes, so the fuzzer explores
// window boundaries (slack can expire mid-window), write/write
// conflicts, upgrades, and deadline-ordered flushes.
func FuzzBatchSchedule(f *testing.F) {
	f.Add([]byte{0})                                                 // zero window, no ops
	f.Add([]byte{3, 0x11, 0x00, 0x29, 0x41})                         // 75ms window, two conflicting clients
	f.Add([]byte{1, 0x08, 0xf3, 0x08, 0xf3})                         // re-entrant exclusive from one client
	f.Add([]byte{7, 0x01, 0x03, 0x02, 0x03, 0x03, 0x03, 0x04, 0x03}) // shared pile-up on one object
	f.Add([]byte{2, 0x10, 0x02, 0x18, 0x02, 0x11, 0x12, 0x19, 0x12}) // mixed modes, two objects
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := time.Duration(data[0]%8) * 25 * time.Millisecond
		ops := data[1:]
		if len(ops) > 128 {
			ops = ops[:128]
		}
		nOps := len(ops) / 2

		env := sim.NewEnv()
		table := lockmgr.NewTable()
		table.Reserve(16)

		// grants counts how often each request key was granted, at the
		// sink or via a Release promotion; flushGrants collects the
		// (owner, obj, mode) grants of the in-progress flush.
		type grant struct {
			owner lockmgr.OwnerID
			obj   lockmgr.ObjectID
			mode  lockmgr.Mode
		}
		type key struct {
			client netsim.SiteID
			id     txn.ID
			obj    lockmgr.ObjectID
		}
		grants := make(map[key]int)
		var flushGrants []grant
		inFlush := false

		const hold = 40 * time.Millisecond
		var release func(obj lockmgr.ObjectID, owner lockmgr.OwnerID)
		release = func(obj lockmgr.ObjectID, owner lockmgr.OwnerID) {
			for _, p := range table.Release(obj, owner) {
				k := key{client: netsim.SiteID(p.Owner), id: txn.ID(p.Tag), obj: p.Obj}
				grants[k]++
				if grants[k] > 1 {
					t.Fatalf("request %+v granted %d times (promotion)", k, grants[k])
				}
				promoted := p
				env.Schedule(hold, func() { release(promoted.Obj, promoted.Owner) })
			}
		}

		var sched *Scheduler
		sink := func(r Request) Outcome {
			now := env.Now()
			if r.Deadline <= now {
				return OutDeniedExpired
			}
			k := key{client: r.Client, id: r.Txn, obj: r.Obj}
			out, _ := table.Lock(&lockmgr.Request{
				Obj:      r.Obj,
				Owner:    lockmgr.OwnerID(r.Client),
				Mode:     r.Mode,
				Deadline: r.Deadline,
				Tag:      int64(r.Txn),
			})
			switch out {
			case lockmgr.Granted:
				grants[k]++
				if grants[k] > 1 {
					t.Fatalf("request %+v granted %d times (sink)", k, grants[k])
				}
				if inFlush {
					flushGrants = append(flushGrants, grant{owner: lockmgr.OwnerID(r.Client), obj: r.Obj, mode: r.Mode})
				}
				obj, owner := r.Obj, lockmgr.OwnerID(r.Client)
				env.Schedule(hold, func() { release(obj, owner) })
				return OutGranted
			case lockmgr.Queued:
				return OutQueued
			default:
				return OutDeniedDeadlock
			}
		}
		sched = NewScheduler(env, window, sink)
		sched.BeginFlush = func(int) {
			inFlush = true
			flushGrants = flushGrants[:0]
		}
		sched.EndFlush = func() {
			inFlush = false
			for i, a := range flushGrants {
				for _, b := range flushGrants[:i] {
					if a.obj == b.obj && a.owner != b.owner && !lockmgr.Compatible(a.mode, b.mode) {
						t.Fatalf("flush granted %v to owner %d and %v to owner %d on object %d simultaneously",
							a.mode, a.owner, b.mode, b.owner, a.obj)
					}
				}
			}
			if err := table.Audit(); err != nil {
				t.Fatalf("lock table after flush: %v", err)
			}
			if err := sched.Audit(); err != nil {
				t.Fatal(err)
			}
		}

		at := time.Duration(0)
		for i := 0; i < nOps; i++ {
			b0, b1 := ops[2*i], ops[2*i+1]
			at += time.Duration(b0>>4) * 5 * time.Millisecond
			r := Request{
				Client:   netsim.SiteID(b0&0x07) + 1,
				Txn:      txn.ID(i + 1),
				Obj:      lockmgr.ObjectID(b1 & 0x0f),
				Mode:     lockmgr.ModeShared,
				Deadline: at + time.Duration(b1>>4)*20*time.Millisecond,
			}
			if b0&0x08 != 0 {
				r.Mode = lockmgr.ModeExclusive
			}
			env.Schedule(at, func() { sched.Add(r) })
		}
		env.RunAll()

		if sched.PendingLen() != 0 {
			t.Fatalf("%d requests still pending after the event queue drained", sched.PendingLen())
		}
		if sched.Entered != int64(nOps) {
			t.Fatalf("scheduler entered %d requests, enqueued %d", sched.Entered, nOps)
		}
		if err := sched.Audit(); err != nil {
			t.Fatal(err)
		}
		var resolved int64
		for out, n := range sched.Resolved {
			if n < 0 {
				t.Fatalf("negative count %d for outcome %v", n, Outcome(out))
			}
			resolved += n
		}
		if resolved != int64(nOps) {
			t.Fatalf("resolved %d of %d requests: %v", resolved, nOps, outcomeCounts(sched))
		}
		if err := table.Audit(); err != nil {
			t.Fatalf("final lock table: %v", err)
		}
		for k, n := range grants {
			if n > 1 {
				t.Fatalf("request %+v granted %d times", k, n)
			}
		}
	})
}

func outcomeCounts(s *Scheduler) string {
	out := ""
	for i, n := range s.Resolved {
		if n != 0 {
			out += fmt.Sprintf(" %v=%d", Outcome(i), n)
		}
	}
	return out
}
