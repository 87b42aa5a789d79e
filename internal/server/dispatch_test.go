package server

import (
	"fmt"
	"testing"
	"time"

	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
)

// TestSharedRunWithHeadHoldingEL pins defect (d) of ROADMAP item 1 in
// the state every failing seed of rtdbs.TestKnownDispatchPanicSeeds
// reaches: client 1 holds the object in EL, the sealed list is a shared
// run [1 SL, 2 SL] with client 1 at its head, and no request is queued.
// tryDispatch serves the run although the lock table cannot grant it:
// blockedForHead skips the holders at the head's own site, so the
// head's EL does not block its run; Lock re-enters client 1's SL (an EL
// holder is granted any mode); and client 2's SL conflicts with that EL
// and is Queued, which dispatch takes for impossible. The fix of item
// 1(b) flips this test into one that dispatches cleanly, as it flips
// TestKnownDispatchPanicSeeds.
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

	const want = "server: free object grant failed at dispatch"
	defer func() {
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("tryDispatch recovered %q, want the panic %q", got, want)
		}
		if q := s.locks.NextWaiter(obj); q == nil || q.Owner != 2 || q.Mode != lockmgr.ModeShared {
			t.Fatalf("queued after the panic: %+v, want client 2's SL", q)
		}
	}()
	s.tryDispatch(obj)
}
