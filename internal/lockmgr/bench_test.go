package lockmgr

import (
	"testing"
	"time"

	"siteselect/internal/sim"
)

// Every client site owns a lock table, so an untouched table must be
// one small object, and both index forms must run their steady state —
// a transaction's lock set taken and released, a waiter queued and
// canceled — without allocating.

var (
	sinkTable    *Table
	sinkBlocking *BlockingTable
)

func TestNewTableIsOneObject(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sinkTable = NewTable() }); n != 1 {
		t.Errorf("NewTable allocates %v objects, want 1 (its maps are made by the first write)", n)
	}
	env := sim.NewEnv()
	if n := testing.AllocsPerRun(100, func() { sinkBlocking = NewBlockingTable(env) }); n != 1 {
		t.Errorf("NewBlockingTable allocates %v objects, want 1 (the Table is held by value)", n)
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
	round() // make the maps, fill the free lists
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("a transaction's lock round allocates %v per run, want 0", n)
	}
	if err := tb.Audit(); err != nil {
		t.Error(err)
	}
}

func TestSparseRoundNoAllocs(t *testing.T) { testRoundNoAllocs(t, NewTable()) }

func TestDenseRoundNoAllocs(t *testing.T) {
	tb := NewTable()
	tb.Reserve(64)
	testRoundNoAllocs(t, tb)
}

func benchRound(b *testing.B, tb *Table) {
	var reqs [6]Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txnRound(tb, &reqs, OwnerID(1+2*i))
	}
}

func BenchmarkSparseRound(b *testing.B) { benchRound(b, NewTable()) }

func BenchmarkDenseRound(b *testing.B) {
	tb := NewTable()
	tb.Reserve(64)
	benchRound(b, tb)
}
