package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

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
	tt := tr.txns[x.ID]
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
	tt := tr.txns[x.ID]
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
	tt := live.txns[x.ID]
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
