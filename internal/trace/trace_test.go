package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/lockmgr"
	"siteselect/internal/txn"
)

func mkTxn(id int64, arrival, deadline time.Duration) *txn.Transaction {
	return &txn.Transaction{ID: txn.ID(id), Origin: 1, Arrival: arrival, Deadline: deadline}
}

// The closing-interval chain must tile [Arrival, Finished] exactly.
func TestAttributionSumsToElapsed(t *testing.T) {
	tr := New()
	x := mkTxn(1, 10*time.Millisecond, 100*time.Millisecond)
	tr.Submitted(x, 1, 10*time.Millisecond)
	tr.Mark(x.ID, 1, CompQueue, 25*time.Millisecond)
	tr.MarkWait(x.ID, 1, 55*time.Millisecond, 4*time.Millisecond) // 4ms net + 26ms lock
	tr.Mark(x.ID, 1, CompExec, 80*time.Millisecond)
	x.Status = txn.StatusCommitted
	tr.Finish(x, 1, 83*time.Millisecond) // 3ms residue joins exec
	tt := tr.byID[x.ID]
	if !tt.Done {
		t.Fatal("trace not closed")
	}
	if err := tt.verify(); err != nil {
		t.Fatal(err)
	}
	want := map[Component]time.Duration{
		CompQueue:    15 * time.Millisecond,
		CompNet:      4 * time.Millisecond,
		CompLockWait: 26 * time.Millisecond,
		CompExec:     28 * time.Millisecond,
	}
	for c, w := range want {
		if tt.Buckets[c] != w {
			t.Errorf("bucket %v = %v, want %v", c, tt.Buckets[c], w)
		}
	}
	if err := tr.VerifyNewlyClosed(); err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// MarkWait must clamp a measured transit larger than the interval, and
// retry segments land in their own bucket.
func TestMarkWaitClampAndRetry(t *testing.T) {
	tr := New()
	x := mkTxn(2, 0, time.Second)
	tr.Submitted(x, 1, 0)
	tr.MarkRetry(x.ID, 1, 20*time.Millisecond, 1)
	tr.MarkWait(x.ID, 1, 30*time.Millisecond, time.Hour) // transit >> interval
	x.Status = txn.StatusMissed
	tr.Finish(x, 1, 30*time.Millisecond)
	tt := tr.byID[x.ID]
	if tt.Buckets[CompRetry] != 20*time.Millisecond {
		t.Fatalf("retry bucket = %v", tt.Buckets[CompRetry])
	}
	if tt.Buckets[CompNet] != 10*time.Millisecond || tt.Buckets[CompLockWait] != 0 {
		t.Fatalf("net/lock = %v/%v, want clamped 10ms/0", tt.Buckets[CompNet], tt.Buckets[CompLockWait])
	}
	if err := tt.verify(); err != nil {
		t.Fatal(err)
	}
	if tt.DominantCause() != CompRetry {
		t.Fatalf("dominant = %v", tt.DominantCause())
	}
}

// Finish checks a trace at once and keeps the first failure until
// VerifyNewlyClosed reports it; nothing else is held for the check.
func TestVerifyNewlyClosedReportsFirstFailureOnce(t *testing.T) {
	tr := New()
	for id := int64(1); id <= 3; id++ {
		x := mkTxn(id, 0, time.Second)
		tr.Submitted(x, 1, 0)
		if id > 1 {
			tr.byID[x.ID].Buckets[CompExec] = time.Hour // a leak the identity catches
		}
		x.Status = txn.StatusCommitted
		tr.Finish(x, 1, time.Millisecond)
	}
	err := tr.VerifyNewlyClosed()
	if err == nil || !strings.Contains(err.Error(), "txn 2 ") {
		t.Fatalf("VerifyNewlyClosed = %v, want txn 2's failure", err)
	}
	if err := tr.VerifyNewlyClosed(); err != nil {
		t.Fatalf("failure reported twice: %v", err)
	}
	if err := tr.VerifyAll(); err == nil {
		t.Fatal("VerifyAll missed the leaks")
	}
}

// A nil tracer must be inert, and marks after Finish must not corrupt a
// closed trace.
func TestNilAndClosedSafety(t *testing.T) {
	var tr *Tracer
	x := mkTxn(3, 0, time.Second)
	tr.Submitted(x, 1, 0)
	tr.Mark(x.ID, 1, CompExec, time.Millisecond)
	tr.Finish(x, 1, time.Millisecond)
	if tr.Enabled() || tr.MissCauses(0) != nil {
		t.Fatal("nil tracer should be inert")
	}
	if err := tr.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	live := New()
	live.Submitted(x, 1, 0)
	x.Status = txn.StatusCommitted
	live.Finish(x, 1, 5*time.Millisecond)
	live.Mark(x.ID, 1, CompExec, 9*time.Millisecond) // late mark: ignored
	live.Finish(x, 1, 9*time.Millisecond)            // double finish: ignored
	tt := live.byID[x.ID]
	if tt.Finished != 5*time.Millisecond {
		t.Fatalf("finished moved to %v", tt.Finished)
	}
	if err := tt.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMissCausesWarmupFilter(t *testing.T) {
	tr := New()
	mkMissed := func(id int64, arrival time.Duration, comp Component) {
		x := mkTxn(id, arrival, arrival+10*time.Millisecond)
		tr.Submitted(x, 1, arrival)
		tr.Mark(x.ID, 1, comp, arrival+20*time.Millisecond)
		x.Status = txn.StatusMissed
		tr.Finish(x, 1, arrival+20*time.Millisecond)
	}
	mkMissed(1, 0, CompQueue) // before warmup: excluded
	mkMissed(2, time.Second, CompLockWait)
	mkMissed(3, 2*time.Second, CompLockWait)
	mkMissed(4, 3*time.Second, CompNet)
	// A committed transaction never counts.
	x := mkTxn(5, 4*time.Second, 5*time.Second)
	tr.Submitted(x, 1, 4*time.Second)
	x.Status = txn.StatusCommitted
	tr.Finish(x, 1, 4100*time.Millisecond)

	m := tr.MissCauses(500 * time.Millisecond)
	if m.Missed != 3 {
		t.Fatalf("missed = %d, want 3", m.Missed)
	}
	if m.ByCause[CompLockWait] != 2 || m.ByCause[CompNet] != 1 || m.ByCause[CompQueue] != 0 {
		t.Fatalf("by cause = %v", m.ByCause)
	}
	if !strings.Contains(m.String(), "lock-wait") {
		t.Fatalf("render missing cause name:\n%s", m)
	}
	var buf bytes.Buffer
	if err := tr.WriteAttribution(&buf, 500*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 more missed") {
		t.Fatalf("report missing truncation note:\n%s", buf.String())
	}
}

// The Chrome export must be valid JSON with per-site process metadata
// and phase spans carrying durations.
func TestWriteChrome(t *testing.T) {
	tr := New()
	x := mkTxn(7, 0, 50*time.Millisecond)
	tr.Submitted(x, 1, 0)
	tr.Point(x.ID, 0, EvObjectShipped, 42, 1, 0, 2*time.Millisecond)
	tr.Mark(x.ID, 1, CompQueue, 5*time.Millisecond)
	x.Status = txn.StatusCommitted
	tr.Finish(x, 1, 9*time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var phases, metas, instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			phases++
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("phase span without duration: %v", ev)
			}
		case "M":
			metas++
		case "i":
			instants++
		}
	}
	if phases < 2 || metas != 2 || instants < 3 {
		t.Fatalf("events: %d phases, %d metas, %d instants\n%s", phases, metas, instants, buf.String())
	}
	var nilTr *Tracer
	if err := nilTr.WriteChrome(&buf); err == nil {
		t.Fatal("nil tracer export should error")
	}
}

// Three transactions whose events interleave across a chunk boundary of
// the log each read back their own timeline, in emission order, with
// the chain link hidden.
func TestEachEventInterleavedAcrossChunks(t *testing.T) {
	tr := New()
	xs := []*txn.Transaction{mkTxn(1, 0, time.Hour), mkTxn(2, 0, time.Hour), mkTxn(3, 0, time.Hour)}
	for _, x := range xs {
		tr.Submitted(x, 1, 0)
	}
	const per = 1500
	for i := 1; i <= per; i++ {
		for k, x := range xs {
			tr.Point(x.ID, 1, EvLockGranted, lockmgr.ObjectID(k), int64(i), 0, time.Duration(i))
		}
	}
	if tr.n <= chunkLen || len(tr.log) != 2 {
		t.Fatalf("%d events in %d chunks: the test does not cross a chunk boundary", tr.n, len(tr.log))
	}
	for k, x := range xs {
		var got []Event
		tr.EachEvent(tr.byID[x.ID], func(ev Event) { got = append(got, ev) })
		if len(got) != per+1 || got[0].Type != EvSubmitted {
			t.Fatalf("txn %d: %d events, first %v", x.ID, len(got), got[0].Type)
		}
		for i, ev := range got[1:] {
			if ev.Obj != lockmgr.ObjectID(k) || ev.A != int64(i+1) || ev.next != 0 {
				t.Fatalf("txn %d event %d = %+v, want obj %d a %d", x.ID, i+1, ev, k, i+1)
			}
		}
	}
}

// A mark or point for an ID that was never submitted, or lies outside
// the index, records nothing.
func TestUnknownIDIgnored(t *testing.T) {
	tr := New()
	tr.Submitted(mkTxn(1, 0, time.Second), 1, 0)
	tr.Submitted(mkTxn(3, 0, time.Second), 1, 0)
	n := tr.n
	for _, id := range []txn.ID{0, 2, 4, 99, -1} {
		tr.Mark(id, 1, CompExec, time.Millisecond)
		tr.MarkWait(id, 1, 2*time.Millisecond, time.Millisecond)
		tr.Point(id, 1, EvRecall, 7, 0, 0, time.Millisecond)
		tr.AddBatchWait(id, 7, time.Millisecond, time.Millisecond)
		x := mkTxn(int64(id), 0, time.Second)
		tr.Finish(x, 1, 3*time.Millisecond)
	}
	if tr.n != n {
		t.Fatalf("%d events logged for unknown IDs", tr.n-n)
	}
}

// An Event's chain link rides in padding after Type and Comp, so it
// costs the log no bytes.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(Event) = %d B, want 56", got)
	}
}

// recordCycle traces one transaction from submission to commit through
// twenty marks and points, the shape of a busy load-sharing transaction.
func recordCycle(tr *Tracer, x *txn.Transaction) {
	x.ID++
	now := x.ID * 1000
	x.Arrival = time.Duration(now)
	tr.Submitted(x, 1, x.Arrival)
	for i := 1; i <= 10; i++ {
		at := time.Duration(now) + time.Duration(10*i)
		tr.Point(x.ID, 1, EvLockRequested, lockmgr.ObjectID(i), 1, 0, at)
		tr.Mark(x.ID, 1, Component(i%int(NumComponents)), at+5)
	}
	x.Status = txn.StatusCommitted
	tr.Finish(x, 1, time.Duration(now)+200)
}

// Recording allocates only a log chunk every 4 096 events, a slab chunk
// of records, and the amortized growth of the index. AllocsPerRun
// rounds its average down to a whole number, so one run is a thousand
// transactions.
func TestRecordNoAllocs(t *testing.T) {
	tr := New()
	x := mkTxn(0, 0, time.Hour)
	for i := 0; i < 200; i++ {
		recordCycle(tr, x)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			recordCycle(tr, x)
		}
	}) / 1000
	if allocs > 0.05 {
		t.Fatalf("a traced transaction allocates %.3f objects, ceiling 0.05", allocs)
	}
	if err := tr.VerifyNewlyClosed(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTracerRecord times one traced transaction of recordCycle's
// shape. A fresh tracer every 4 096 transactions keeps the log a few
// megabytes at any -benchtime; the chunks it makes are counted.
func BenchmarkTracerRecord(b *testing.B) {
	var tr *Tracer
	x := mkTxn(0, 0, time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			tr, x.ID = New(), 0
		}
		recordCycle(tr, x)
	}
}
