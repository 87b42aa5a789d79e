package batch

import (
	"strings"
	"testing"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

func req(client int, id int, obj int, deadline time.Duration) Request {
	return Request{
		Client:   netsim.SiteID(client),
		Txn:      txn.ID(id),
		Obj:      lockmgr.ObjectID(obj),
		Mode:     lockmgr.ModeShared,
		Deadline: deadline,
	}
}

// TestZeroWindowInline pins the equivalence path: with window 0 the sink
// runs synchronously inside Add, nothing is buffered, no event is
// scheduled, and the flush machinery never engages.
func TestZeroWindowInline(t *testing.T) {
	env := sim.NewEnv()
	var served []txn.ID
	s := NewScheduler(env, 0, func(r Request) Outcome {
		served = append(served, r.Txn)
		return OutGranted
	})
	s.BeginFlush = func() { t.Fatal("BeginFlush called on the inline path") }
	s.EndFlush = func() { t.Fatal("EndFlush called on the inline path") }
	for i := 1; i <= 3; i++ {
		s.Add(req(1, i, i, time.Second))
		if len(served) != i {
			t.Fatalf("after Add %d the sink ran %d times, want inline", i, len(served))
		}
	}
	env.RunAll()
	if env.Now() != 0 {
		t.Fatalf("inline adds scheduled events: clock at %v", env.Now())
	}
	if s.Flushes != 0 || s.Batched != 0 || len(s.pending) != 0 {
		t.Fatalf("inline path touched flush state: flushes=%d batched=%d pending=%d",
			s.Flushes, s.Batched, len(s.pending))
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedFlushOrder checks that one window's batch reaches the sink
// in (deadline, arrival) order, bracketed by BeginFlush/EndFlush, and
// that a second window opens independently afterwards.
func TestWindowedFlushOrder(t *testing.T) {
	env := sim.NewEnv()
	var served []txn.ID
	var brackets []string
	s := NewScheduler(env, 50*time.Millisecond, func(r Request) Outcome {
		served = append(served, r.Txn)
		return OutQueued
	})
	s.BeginFlush = func() { brackets = append(brackets, "begin") }
	s.EndFlush = func() { brackets = append(brackets, "end") }

	env.Schedule(0, func() {
		s.Add(req(1, 1, 1, 300*time.Millisecond))
		s.Add(req(2, 2, 2, 100*time.Millisecond))
		s.Add(req(3, 3, 3, 100*time.Millisecond)) // ties break by arrival
	})
	env.Schedule(10*time.Millisecond, func() {
		s.Add(req(4, 4, 4, 50*time.Millisecond))
		if !s.Pending(2, 2, 2) {
			t.Error("request 2 not pending inside its window")
		}
		if s.Pending(2, 2, 3) {
			t.Error("Pending matched a different object")
		}
	})
	// Lands after the first window closes at t=50ms: second flush.
	env.Schedule(70*time.Millisecond, func() { s.Add(req(5, 5, 5, time.Second)) })
	env.RunAll()

	want := []txn.ID{4, 2, 3, 1, 5}
	if len(served) != len(want) {
		t.Fatalf("served %v, want %v", served, want)
	}
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("served %v, want %v", served, want)
		}
	}
	if s.Flushes != 2 {
		t.Fatalf("flushes = %d, want 2", s.Flushes)
	}
	if s.Batched != 4 {
		t.Fatalf("batched = %d, want 4 (the singleton flush does not count)", s.Batched)
	}
	if len(brackets) != 4 || brackets[0] != "begin" || brackets[1] != "end" {
		t.Fatalf("flush brackets = %v", brackets)
	}
	if s.Pending(2, 2, 2) {
		t.Error("request still pending after its window flushed")
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDetectsLoss corrupts the counters to prove Audit actually
// distinguishes a conserving scheduler from a lossy one.
func TestAuditDetectsLoss(t *testing.T) {
	env := sim.NewEnv()
	s := NewScheduler(env, 0, func(Request) Outcome { return OutGranted })
	s.Add(req(1, 1, 1, time.Second))
	if err := s.Audit(); err != nil {
		t.Fatalf("conserving scheduler failed audit: %v", err)
	}
	s.Entered++ // simulate a request that entered but never resolved
	if err := s.Audit(); err == nil {
		t.Fatal("audit passed with a lost request")
	} else if !strings.Contains(err.Error(), "conservation violated") {
		t.Fatalf("audit error does not name the violation: %v", err)
	}
}

// TestOutcomeStrings keeps the audit report names attached to the enum.
func TestOutcomeStrings(t *testing.T) {
	for o := Outcome(0); o < numOutcomes; o++ {
		if o.String() == "" || o.String()[0] == 'O' {
			t.Fatalf("outcome %d has no name", o)
		}
	}
	if got := Outcome(250).String(); got != "Outcome(250)" {
		t.Fatalf("out-of-range outcome prints %q", got)
	}
}

// TestPendingRetransmitWhileParked drives the retransmission guard
// through a full window lifecycle: a request is Pending from the moment
// it parks until its window flushes, an identically keyed retransmit is
// detectable (and, as the server uses it, suppressed) while parked, and
// the guard resets when the window closes so a genuinely new request
// with the same key enters the next window.
func TestPendingRetransmitWhileParked(t *testing.T) {
	env := sim.NewEnv()
	var served []txn.ID
	var s *Scheduler
	s = NewScheduler(env, 50*time.Millisecond, func(r Request) Outcome {
		served = append(served, r.Txn)
		return OutGranted
	})

	env.Schedule(0, func() { s.Add(req(1, 7, 3, time.Second)) })
	// A retransmit lands mid-window: the guard must see the parked
	// original, and the server-side pattern (drop when Pending) must
	// keep the window at one copy.
	env.Schedule(20*time.Millisecond, func() {
		if !s.Pending(1, 7, 3) {
			t.Error("original not pending at 20ms (retransmit would enter the window twice)")
		}
		if s.Pending(1, 7, 4) || s.Pending(2, 7, 3) || s.Pending(1, 8, 3) {
			t.Error("Pending matched on a partial key")
		}
		if s.Pending(1, 7, 3) {
			return // retransmit suppressed, as the server does
		}
		s.Add(req(1, 7, 3, time.Second))
	})
	// After the flush at 50ms the window is empty again; the same key
	// must not read as parked, and a fresh request re-enters cleanly.
	env.Schedule(60*time.Millisecond, func() {
		if s.Pending(1, 7, 3) {
			t.Error("request still pending after its window flushed")
		}
		s.Add(req(1, 7, 3, time.Second))
		if !s.Pending(1, 7, 3) {
			t.Error("re-added request not pending in the second window")
		}
	})
	env.RunAll()

	if len(served) != 2 || served[0] != 7 || served[1] != 7 {
		t.Fatalf("served %v, want the original and the second-window copy only", served)
	}
	if len(s.pending) != 0 || s.Pending(1, 7, 3) {
		t.Fatal("guard state left behind after the final flush")
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}
