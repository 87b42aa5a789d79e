package batch

import (
	"testing"
	"time"

	"siteselect/internal/sim"
)

// windowRig drives one batch window per round: eight requests with
// colliding deadlines, one of which makes the sink re-enter Add (the
// server does, when a flushed request is re-routed to its own window),
// so a round also opens the next window from inside a flush.
type windowRig struct {
	env     *sim.Env
	s       *Scheduler
	k       int
	reenter bool
}

func newWindowRig() *windowRig {
	r := &windowRig{env: sim.NewEnv()}
	r.s = NewScheduler(r.env, 100*time.Millisecond, func(q Request) Outcome {
		if q.Obj == 3 && r.reenter {
			r.reenter = false
			r.s.Add(req(9, int(q.Txn), 9, q.Deadline))
		}
		return OutGranted
	})
	r.s.BeginFlush = func() {}
	r.s.EndFlush = func() {}
	return r
}

func (r *windowRig) round() {
	for j := 0; j < 8; j++ {
		r.k++
		r.s.Add(req(j+1, r.k, j, time.Duration(r.k%3)*time.Second))
	}
	r.reenter = true
	r.env.RunAll()
}

// TestAddFlushZeroAlloc pins a steady-state batch window — Add, window
// open, flush, (deadline, arrival) sort, sink, a re-entrant Add from the
// sink and the window that opens — at zero allocations: the two pending
// buffers alternate, the flush callback is bound once, the sort neither
// reflects nor closes over anything, and no map is touched unless the
// retransmission guard has asked.
func TestAddFlushZeroAlloc(t *testing.T) {
	r := newWindowRig()
	r.round()
	r.round() // both buffers have seen a full window
	if n := testing.AllocsPerRun(200, r.round); n != 0 {
		t.Errorf("a batch window allocates %v per round, want 0", n)
	}
	if r.s.Flushes < 400 || r.s.Entered != r.s.Resolved[OutGranted] {
		t.Fatalf("rig did not flush: %d flushes, %d entered, %d granted",
			r.s.Flushes, r.s.Entered, r.s.Resolved[OutGranted])
	}
	if err := r.s.Audit(); err != nil {
		t.Fatal(err)
	}

	// With the retransmission guard in use the index is kept up as well,
	// still without allocating once its map has grown.
	if r.s.Pending(1, 1, 1) {
		t.Fatal("stale request reported pending")
	}
	r.round()
	if n := testing.AllocsPerRun(200, r.round); n != 0 {
		t.Errorf("a guarded batch window allocates %v per round, want 0", n)
	}
}

func BenchmarkAddFlush(b *testing.B) {
	r := newWindowRig()
	r.round()
	r.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round()
	}
}
