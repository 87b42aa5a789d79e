package lockmgr

import (
	"fmt"
	"testing"
	"time"
)

// Every client site owns a lock table, so an untouched table must be
// one small object, and both index forms must run their steady state —
// a transaction's lock set taken and released, a waiter queued and
// canceled — without allocating.

var sinkTable *Table

func TestNewTableIsOneObject(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sinkTable = NewTable() }); n != 1 {
		t.Errorf("NewTable allocates %v objects, want 1 (its maps are made by the first write)", n)
	}
}

// txnRound is one transaction against tb: owner takes four locks and
// releases them all, then a second owner queues behind a held lock and
// cancels (wait-for edges, deadlock scan, waiting index).
func txnRound(tb *Table, reqs *[6]Request, owner OwnerID) {
	for i := 0; i < 4; i++ {
		r := &reqs[i]
		*r = Request{Obj: ObjectID(10 + i), Owner: owner, Mode: ModeShared, Deadline: time.Minute}
		if i == 3 {
			r.Mode = ModeExclusive
		}
		if out, _ := tb.Lock(r); out != Granted {
			panic("free object not granted")
		}
	}
	w := &reqs[4]
	*w = Request{Obj: 13, Owner: owner + 1, Mode: ModeShared, Deadline: time.Minute}
	if out, _ := tb.Lock(w); out != Queued {
		panic("conflicting request not queued")
	}
	tb.Cancel(w)
	tb.ReleaseAll(owner)
}

func testRoundNoAllocs(t *testing.T, tb *Table) {
	t.Helper()
	var reqs [6]Request
	owner := OwnerID(1)
	round := func() {
		txnRound(tb, &reqs, owner)
		owner += 2 // owners are transaction ids: never reused
	}
	round() // take the index storage, fill the free lists
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("a transaction's lock round allocates %v per run, want 0", n)
	}
	if err := tb.Audit(); err != nil {
		t.Error(err)
	}
}

func TestSparseRoundNoAllocs(t *testing.T) { testRoundNoAllocs(t, NewTable()) }

func TestDenseRoundNoAllocs(t *testing.T) { testRoundNoAllocs(t, denseTable(64)) }

// TestFirstTransactionOnSharedSlab: a table's first transaction takes
// its records, and the storage of its two sparse indexes, from the
// system's slab and hands them all back, so on a slab another table has
// warmed it allocates nothing — with one lock or five. At population
// scale every client's table sees one transaction, so the first use is
// the only use. (It allocated what the table was made of, its two maps,
// while the indexes were Go maps.)
func TestFirstTransactionOnSharedSlab(t *testing.T) {
	const runs = 50
	firstTxn := func(locks int) float64 {
		var shared Slab
		tables := make([]Table, runs+2) // one warms the slab, AllocsPerRun warms up with another
		reqs := make([]Request, locks)  // a granted request is the caller's again
		next := 0
		txn := func() {
			tb := &tables[next]
			next++
			tb.Init(&shared)
			for obj := range reqs {
				reqs[obj] = Request{Obj: ObjectID(obj), Owner: 2, Mode: ModeShared}
				if out, _ := tb.Lock(&reqs[obj]); out != Granted {
					t.Fatal("free object not granted")
				}
			}
			tb.ReleaseAll(2)
		}
		txn()
		return testing.AllocsPerRun(runs, txn)
	}
	for _, locks := range []int{1, 5} {
		if n := firstTxn(locks); n != 0 {
			t.Errorf("a table's first transaction with %d locks allocates %v, want 0", locks, n)
		}
	}
}

// waiterRound is the contended path a recall round takes at the server:
// a writer holds obj, two readers and a second writer queue behind it,
// the writer releases — both readers are admitted in one grant list,
// which the caller consumes — and the readers' releases admit the last
// writer. The entry is retired at the end, so the next round reuses it.
func waiterRound(tb *Table, reqs *[6]Request, obj ObjectID) {
	lock := func(i int, owner OwnerID, mode Mode, want Outcome) {
		reqs[i] = Request{Obj: obj, Owner: owner, Mode: mode, Deadline: time.Duration(i) * time.Second, Tag: int64(i)}
		if out, _ := tb.Lock(&reqs[i]); out != want {
			panic("unexpected lock outcome")
		}
	}
	lock(0, 1, ModeExclusive, Granted)
	lock(1, 2, ModeShared, Queued)
	lock(2, 3, ModeShared, Queued)
	lock(3, 4, ModeExclusive, Queued)
	grants := tb.Release(obj, 1)
	if len(grants) != 2 || grants[0] != &reqs[1] || grants[1] != &reqs[2] || grants[1].Tag != 2 {
		panic("readers not admitted together, in deadline order")
	}
	if len(tb.Release(obj, 2)) != 0 {
		panic("writer admitted past a reader")
	}
	if grants = tb.Release(obj, 3); len(grants) != 1 || grants[0] != &reqs[3] {
		panic("writer not admitted by the last reader's release")
	}
	tb.Release(obj, 4)
}

// TestWaiterRoundNoAllocs pins enqueue → release → admit → grant
// consumed at zero allocations: admit pops by shifting down, so the
// queue's array stays whole; grants come back in the table's shared
// list; and a retired entry keeps its holder and queue capacity for the
// next object that needs one.
func TestWaiterRoundNoAllocs(t *testing.T) {
	for name, tb := range map[string]*Table{"sparse": NewTable(), "dense": denseTable(64)} {
		var reqs [6]Request
		obj := ObjectID(0)
		round := func() {
			waiterRound(tb, &reqs, obj)
			obj = (obj + 1) % 64 // a retired entry serves another object next
		}
		round()
		if n := testing.AllocsPerRun(500, round); n != 0 {
			t.Errorf("%s: a queued-waiter round allocates %v per run, want 0", name, n)
		}
		if err := tb.Audit(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func denseTable(n int) *Table {
	tb := NewTable()
	tb.Reserve(n)
	return tb
}

func BenchmarkWaiterRound(b *testing.B) {
	tb := denseTable(64)
	var reqs [6]Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		waiterRound(tb, &reqs, ObjectID(i%64))
	}
}

func benchRound(b *testing.B, tb *Table) {
	var reqs [6]Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txnRound(tb, &reqs, OwnerID(1+2*i))
	}
}

func BenchmarkSparseRound(b *testing.B) { benchRound(b, NewTable()) }

func BenchmarkDenseRound(b *testing.B) { benchRound(b, denseTable(64)) }

// deepQueues returns a table where owner 1 holds objects 0–3 exclusively,
// depth other owners each wait on all four, and so does owner 2, whose
// requests are returned. They have the earliest deadline, as the request
// of a transaction canceled for missing its deadline has: Cancel finds
// each at the head of its queue, and what a round costs beyond the
// dequeue is the gap closed and opened again in the queue's array.
func deepQueues(depth int) (*Table, *[4]Request) {
	tb := denseTable(4)
	fill := make([]Request, 4*(depth+1))
	lock := func(r *Request, obj ObjectID, owner OwnerID, want Outcome) {
		*r = Request{Obj: obj, Owner: owner, Mode: ModeExclusive, Deadline: time.Duration(owner) * time.Second}
		if out, _ := tb.Lock(r); out != want {
			panic("unexpected lock outcome")
		}
	}
	mine := new([4]Request)
	for obj := ObjectID(0); obj < 4; obj++ {
		lock(&fill[obj], obj, 1, Granted)
		for k := 1; k <= depth; k++ {
			lock(&fill[4*k+int(obj)], obj, OwnerID(2+k), Queued)
		}
		lock(&mine[obj], obj, 2, Queued)
	}
	return tb, mine
}

// dequeueRound cancels each of the owner's four queued requests and
// queues it again: four dequeues, each rebuilding the owner's wait-for
// edges from the three requests it still has queued.
func dequeueRound(tb *Table, mine *[4]Request) {
	for i := range mine {
		r := &mine[i]
		tb.Cancel(r)
		if out, _ := tb.Lock(r); out != Queued {
			panic("request behind a writer not queued")
		}
	}
}

// BenchmarkDequeueDeepQueue pins what a dequeue costs against the depth
// of the queues its owner waits in: the edge rebuild visits the owner's
// own requests and no queue.
func BenchmarkDequeueDeepQueue(b *testing.B) {
	for _, depth := range []int{16, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			tb, mine := deepQueues(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dequeueRound(tb, mine)
			}
		})
	}
}

// TestDequeueNoAllocs: the waiting index and the edge set are rebuilt in
// the owner's own blocks.
func TestDequeueNoAllocs(t *testing.T) {
	tb, mine := deepQueues(64)
	if n := testing.AllocsPerRun(200, func() { dequeueRound(tb, mine) }); n != 0 {
		t.Errorf("a cancel and re-lock round allocates %v per run, want 0", n)
	}
	if err := tb.Audit(); err != nil {
		t.Error(err)
	}
}
