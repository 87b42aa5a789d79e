package server

import (
	"testing"
	"time"

	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/proto"
)

// TestSharedRunWithHeadHoldingEL is defect (d) of ROADMAP item 1 in the
// state every seed of rtdbs.TestKnownDispatchPanicSeeds used to panic
// in: client 1 holds the object in EL, the sealed list is a shared run
// [1 SL, 2 SL] with client 1 at its head, and no request is queued.
// blockedForHead skips the holders at the head's own site, so the
// head's EL does not block its run — but it does block client 2's
// member, which Lock would queue. Dispatch puts that member back on the
// sealed list before any Lock, serves client 1 alone (Lock re-enters its
// SL: an EL holder is granted any mode), and recalls client 1's EL for
// client 2. Nothing is queued in the lock table.
func TestSharedRunWithHeadHoldingEL(t *testing.T) {
	r := newRig(t, 2, nil)
	defer r.env.Close()
	const obj = 9
	s := r.srv
	if out, _ := s.locks.Lock(&lockmgr.Request{Obj: obj, Owner: 1, Mode: lockmgr.ModeExclusive, Deadline: time.Hour}); out != lockmgr.Granted {
		t.Fatalf("client 1's EL: %v", out)
	}
	run := forward.NewList(obj)
	run.Insert(forward.Entry{Client: 1, Mode: lockmgr.ModeShared, Deadline: time.Minute, Txn: 1})
	run.Insert(forward.Entry{Client: 2, Mode: lockmgr.ModeShared, Deadline: 2 * time.Minute, Txn: 2})
	s.rec(obj).sealed = run
	if s.locks.NextWaiter(obj) != nil {
		t.Fatal("a request is queued; the failing state has none")
	}

	s.tryDispatch(obj)
	if q := s.locks.NextWaiter(obj); q != nil {
		t.Fatalf("queued after dispatch: %+v, want nothing", q)
	}
	if l := s.find(obj).sealed; l == nil || l.Len() != 1 || l.Entries[0].Client != 2 {
		t.Fatalf("sealed after dispatch = %+v, want client 2's SL alone", l)
	}
	var shipped, recalled bool
	for _, m := range r.drain(1, time.Second) {
		switch pl := m.Payload.(type) {
		case *proto.GrantMsg:
			shipped = shipped || pl.Grants[0].Obj == obj
		case *proto.RecallMsg:
			recalled = recalled || pl.Recalls[0].Obj == obj
		}
	}
	if !shipped || !recalled {
		t.Fatalf("client 1 shipped %v, recalled %v; want both", shipped, recalled)
	}
	if msgs := r.drain(2, time.Second); len(msgs) != 0 {
		t.Fatalf("client 2 received %+v before client 1's EL came back", msgs)
	}
}
