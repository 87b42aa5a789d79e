package sched

import (
	"testing"
	"testing/quick"
	"time"

	"siteselect/internal/txn"
)

func tx(id int64, deadline time.Duration) *txn.Transaction {
	return &txn.Transaction{ID: txn.ID(id), Deadline: deadline, Status: txn.StatusPending}
}

func TestEDFOrder(t *testing.T) {
	q := NewEDFQueue()
	q.Push(tx(1, 30*time.Second))
	q.Push(tx(2, 10*time.Second))
	q.Push(tx(3, 20*time.Second))
	want := []txn.ID{2, 3, 1}
	for _, id := range want {
		got := q.Pop()
		if got == nil || got.ID != id {
			t.Fatalf("pop = %v, want %d", got, id)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop of empty queue should be nil")
	}
}

func TestEDFTieFIFO(t *testing.T) {
	q := NewEDFQueue()
	for i := int64(1); i <= 5; i++ {
		q.Push(tx(i, time.Second))
	}
	for i := int64(1); i <= 5; i++ {
		if got := q.Pop(); got.ID != txn.ID(i) {
			t.Fatalf("tie order broken: got %d want %d", got.ID, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	q := NewEDFQueue()
	if q.Peek() != nil {
		t.Fatal("peek of empty should be nil")
	}
	q.Push(tx(1, time.Second))
	if q.Peek().ID != 1 || q.Len() != 1 {
		t.Fatal("peek misbehaved")
	}
}

func TestPopReadySkipsMissed(t *testing.T) {
	q := NewEDFQueue()
	q.Push(tx(1, 5*time.Second))
	q.Push(tx(2, 15*time.Second))
	q.Push(tx(3, 25*time.Second))
	ready, missed := q.PopReady(10 * time.Second)
	if ready == nil || ready.ID != 2 {
		t.Fatalf("ready = %v, want id 2", ready)
	}
	if len(missed) != 1 || missed[0].ID != 1 {
		t.Fatalf("missed = %v", missed)
	}
	ready, missed = q.PopReady(100 * time.Second)
	if ready != nil || len(missed) != 1 || missed[0].ID != 3 {
		t.Fatalf("second PopReady: ready=%v missed=%v", ready, missed)
	}
}

func TestDropMissed(t *testing.T) {
	q := NewEDFQueue()
	for i := int64(1); i <= 6; i++ {
		q.Push(tx(i, time.Duration(i)*time.Second))
	}
	missed := q.DropMissed(3 * time.Second) // ids 1,2 missed (deadline < now), 3 at limit survives
	if len(missed) != 2 {
		t.Fatalf("missed = %d, want 2", len(missed))
	}
	if q.Len() != 4 {
		t.Fatalf("remaining = %d, want 4", q.Len())
	}
	if got := q.Pop(); got.ID != 3 {
		t.Fatalf("head after drop = %d, want 3", got.ID)
	}
}

func TestATL(t *testing.T) {
	a := &ATL{Default: 10 * time.Second}
	if a.Mean() != 10*time.Second {
		t.Fatalf("default mean = %v", a.Mean())
	}
	a.Observe(4 * time.Second)
	a.Observe(8 * time.Second)
	if a.Mean() != 6*time.Second {
		t.Fatalf("mean = %v, want 6s", a.Mean())
	}
	if a.count != 2 {
		t.Fatalf("count = %d", a.count)
	}
}

func TestFeasibleH1(t *testing.T) {
	now := 100 * time.Second
	atl := 10 * time.Second
	if !FeasibleH1(now, 2, atl, 120*time.Second) {
		t.Fatal("exactly-feasible case should pass (<=)")
	}
	if FeasibleH1(now, 3, atl, 120*time.Second) {
		t.Fatal("infeasible case should fail")
	}
	if !FeasibleH1(now, 0, atl, now) {
		t.Fatal("empty queue with deadline=now should pass")
	}
}

// DropMissed filters the backing slice in place and re-heapifies; after
// a partial removal the survivors must still satisfy the heap property
// (parent ≤ child under the (deadline, seq) order) and pop in EDF order.
func TestDropMissedPreservesHeapProperty(t *testing.T) {
	q := NewEDFQueue()
	// Interleave survivors and victims so the removal punches holes in
	// the middle of the heap slice, not just at the top.
	deadlines := []time.Duration{9, 2, 7, 2, 9, 4, 7, 1, 4, 8, 3, 8}
	for i, d := range deadlines {
		q.Push(tx(int64(i+1), d*time.Second))
	}
	missed := q.DropMissed(5 * time.Second) // deadlines 1..4 missed
	if len(missed) != 6 {
		t.Fatalf("missed = %d, want 6", len(missed))
	}
	for _, m := range missed {
		if m.Deadline >= 5*time.Second {
			t.Fatalf("txn %d (deadline %v) wrongly dropped", m.ID, m.Deadline)
		}
	}
	// Direct heap-invariant check on the retained items.
	for i := 1; i < q.items.Len(); i++ {
		parent := (i - 1) / 2
		if q.items.Less(i, parent) {
			t.Fatalf("heap property violated: item %d < parent %d", i, parent)
		}
	}
	// And the observable consequence: pops come out in EDF order.
	last := time.Duration(-1)
	for q.Len() > 0 {
		got := q.Pop()
		if got.Deadline < last {
			t.Fatalf("pop order broken after DropMissed: %v after %v", got.Deadline, last)
		}
		last = got.Deadline
	}
}

// PopReady under an equal-deadline tie: the missed transactions are
// accounted in submission (seq) order, and the first live transaction
// returned is the earliest-pushed among the tied survivors.
func TestPopReadyEqualDeadlineTies(t *testing.T) {
	q := NewEDFQueue()
	// Three transactions tied at a deadline that has passed, then two
	// tied at a live deadline.
	for i := int64(1); i <= 3; i++ {
		q.Push(tx(i, 5*time.Second))
	}
	q.Push(tx(4, 20*time.Second))
	q.Push(tx(5, 20*time.Second))
	ready, missed := q.PopReady(10 * time.Second)
	if ready == nil || ready.ID != 4 {
		t.Fatalf("ready = %v, want id 4 (seq order among ties)", ready)
	}
	if len(missed) != 3 {
		t.Fatalf("missed = %d, want 3", len(missed))
	}
	for i, m := range missed {
		if m.ID != txn.ID(i+1) {
			t.Fatalf("missed[%d] = %d, want %d (seq order)", i, m.ID, i+1)
		}
	}
	// A deadline exactly equal to now is not missed (MissedAt is <),
	// so the remaining tied transaction pops as ready at its deadline.
	ready, missed = q.PopReady(20 * time.Second)
	if ready == nil || ready.ID != 5 || len(missed) != 0 {
		t.Fatalf("at-deadline pop = %v missed=%v, want id 5 and none missed", ready, missed)
	}
	if q.Len() != 0 {
		t.Fatalf("queue should be empty, len = %d", q.Len())
	}
}

// Property: Pop always returns nondecreasing deadlines.
func TestEDFHeapProperty(t *testing.T) {
	f := func(deadlines []uint16) bool {
		q := NewEDFQueue()
		for i, d := range deadlines {
			q.Push(tx(int64(i), time.Duration(d)*time.Millisecond))
		}
		last := time.Duration(-1)
		for q.Len() > 0 {
			got := q.Pop()
			if got.Deadline < last {
				return false
			}
			last = got.Deadline
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
