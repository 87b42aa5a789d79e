package lockmgr

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func req(obj ObjectID, owner OwnerID, mode Mode, dl time.Duration) *Request {
	return &Request{Obj: obj, Owner: owner, Mode: mode, Deadline: dl}
}

// holders returns obj's holders in ascending owner order: the one way
// tests read a holder set, over the accessors production code uses.
func holders(t *Table, obj ObjectID) []OwnerID {
	var out []OwnerID
	for i, n := 0, t.HolderCount(obj); i < n; i++ {
		h, _ := t.HolderAt(obj, i)
		out = append(out, h)
	}
	return out
}

// checkEmpty fails unless tb holds no entry and no owner record (the
// slab zeroes the ones it was handed back).
func checkEmpty(t *testing.T, tb *Table) {
	t.Helper()
	live := len(tb.sparse)
	for _, e := range tb.entries {
		if e != nil {
			live++
		}
	}
	if live != 0 || len(tb.owners) != 0 {
		t.Fatalf("idle table keeps %d entries and %d owner records, want none", live, len(tb.owners))
	}
}

func TestCompatibility(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{ModeShared, ModeShared, true},
		{ModeShared, ModeExclusive, false},
		{ModeExclusive, ModeShared, false},
		{ModeExclusive, ModeExclusive, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeShared.String() != "SL" || ModeExclusive.String() != "EL" {
		t.Fatal("mode names wrong")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	tab := NewTable()
	for i := OwnerID(1); i <= 3; i++ {
		out, _ := tab.Lock(req(1, i, ModeShared, time.Second))
		if out != Granted {
			t.Fatalf("SL for owner %d: %v", i, out)
		}
	}
	if err := tab.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	out, conf := tab.Lock(req(1, 2, ModeShared, 2*time.Second))
	if out != Queued {
		t.Fatalf("outcome = %v, want Queued", out)
	}
	if len(conf) != 1 || conf[0] != 1 {
		t.Fatalf("conflicts = %v", conf)
	}
}

func TestReentrantGrant(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	out, _ := tab.Lock(req(1, 1, ModeShared, time.Second))
	if out != Granted {
		t.Fatalf("EL holder re-requesting SL: %v", out)
	}
	out, _ = tab.Lock(req(1, 1, ModeExclusive, time.Second))
	if out != Granted {
		t.Fatalf("EL holder re-requesting EL: %v", out)
	}
}

func TestReleaseGrantsByDeadline(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	late := req(1, 2, ModeExclusive, 10*time.Second)
	early := req(1, 3, ModeExclusive, 5*time.Second)
	tab.Lock(late)
	tab.Lock(early)
	grants := tab.Release(1, 1)
	if len(grants) != 1 || grants[0] != early {
		t.Fatalf("grant order wrong: got %d grants", len(grants))
	}
	if tab.HolderMode(1, 3) != ModeExclusive {
		t.Fatal("early waiter not holding")
	}
}

func TestMultipleSharedGrantedTogether(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	tab.Lock(req(1, 2, ModeShared, 2*time.Second))
	tab.Lock(req(1, 3, ModeShared, 3*time.Second))
	grants := tab.Release(1, 1)
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2 shared together", len(grants))
	}
}

func TestSharedDoesNotStarveQueuedExclusive(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	tab.Lock(req(1, 2, ModeExclusive, 2*time.Second)) // queued
	out, _ := tab.Lock(req(1, 3, ModeShared, 3*time.Second))
	if out != Queued {
		t.Fatalf("late SL should queue behind waiting EL, got %v", out)
	}
	grants := tab.Release(1, 1)
	if len(grants) != 1 || grants[0].Owner != 2 {
		t.Fatal("EL should be granted first")
	}
	grants = tab.Release(1, 2)
	if len(grants) != 1 || grants[0].Owner != 3 {
		t.Fatal("queued SL should follow EL")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	out, _ := tab.Lock(req(1, 1, ModeExclusive, time.Second))
	if out != Granted {
		t.Fatalf("sole-holder upgrade: %v", out)
	}
	if tab.HolderMode(1, 1) != ModeExclusive {
		t.Fatal("mode not upgraded")
	}
}

func TestUpgradeWaitsForOtherSharers(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	tab.Lock(req(1, 2, ModeShared, time.Second))
	up := req(1, 1, ModeExclusive, time.Second)
	out, conf := tab.Lock(up)
	if out != Queued || len(conf) != 1 || conf[0] != 2 {
		t.Fatalf("upgrade: out=%v conf=%v", out, conf)
	}
	grants := tab.Release(1, 2)
	if len(grants) != 1 || grants[0] != up {
		t.Fatal("upgrade not granted after sharer left")
	}
	if tab.HolderMode(1, 1) != ModeExclusive {
		t.Fatal("upgrade mode wrong")
	}
}

func TestUpgradeJumpsUnrelatedWaiter(t *testing.T) {
	// A holds SL; B waits for EL; A upgrading must not queue behind B
	// (that would deadlock A against itself).
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	tab.Lock(req(1, 2, ModeExclusive, time.Second))
	out, _ := tab.Lock(req(1, 1, ModeExclusive, time.Second))
	if out != Granted {
		t.Fatalf("upgrade past unrelated waiter: %v", out)
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	tab.Lock(req(1, 2, ModeShared, time.Second))
	out, _ := tab.Lock(req(1, 1, ModeExclusive, time.Second))
	if out != Queued {
		t.Fatalf("first upgrade: %v", out)
	}
	out, _ = tab.Lock(req(1, 2, ModeExclusive, time.Second))
	if out != Deadlock {
		t.Fatalf("second upgrade should deadlock, got %v", out)
	}
	if tab.DeadlocksRefused != 1 {
		t.Fatalf("DeadlocksRefused = %d", tab.DeadlocksRefused)
	}
}

func TestCrossObjectDeadlockDetected(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	tab.Lock(req(2, 2, ModeExclusive, time.Second))
	out, _ := tab.Lock(req(2, 1, ModeExclusive, time.Second))
	if out != Queued {
		t.Fatalf("1 waits for 2: %v", out)
	}
	out, _ = tab.Lock(req(1, 2, ModeExclusive, time.Second))
	if out != Deadlock {
		t.Fatalf("closing the cycle should be refused, got %v", out)
	}
}

func TestThreeWayDeadlockDetected(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	tab.Lock(req(2, 2, ModeExclusive, time.Second))
	tab.Lock(req(3, 3, ModeExclusive, time.Second))
	tab.Lock(req(2, 1, ModeExclusive, time.Second)) // 1 -> 2
	tab.Lock(req(3, 2, ModeExclusive, time.Second)) // 2 -> 3
	out, _ := tab.Lock(req(1, 3, ModeExclusive, time.Second))
	if out != Deadlock {
		t.Fatalf("3-cycle should be refused, got %v", out)
	}
}

func TestEdgesClearedAfterGrant(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	tab.Lock(req(1, 2, ModeExclusive, time.Second)) // 2 -> 1
	tab.Release(1, 1)                               // grants 2, clears edge
	// Now 1 can wait on 2 without a phantom cycle.
	out, _ := tab.Lock(req(1, 1, ModeExclusive, time.Second))
	if out != Queued {
		t.Fatalf("after edge cleanup: %v, want Queued", out)
	}
}

func TestDowngrade(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	sl := req(1, 2, ModeShared, time.Second)
	tab.Lock(sl)
	grants := tab.Downgrade(1, 1)
	if len(grants) != 1 || grants[0] != sl {
		t.Fatal("downgrade did not admit the shared waiter")
	}
	if tab.HolderMode(1, 1) != ModeShared || tab.HolderMode(1, 2) != ModeShared {
		t.Fatal("post-downgrade modes wrong")
	}
	if err := tab.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestDowngradeNoopWhenNotEL(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	if grants := tab.Downgrade(1, 1); grants != nil {
		t.Fatal("downgrade of SL should be a no-op")
	}
}

func TestCancelUnblocksQueue(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	blocked := req(1, 2, ModeExclusive, 2*time.Second)
	tab.Lock(blocked)
	waiting := req(1, 3, ModeShared, 3*time.Second)
	tab.Lock(waiting)
	grants := tab.Cancel(blocked)
	if len(grants) != 1 || grants[0] != waiting {
		t.Fatal("canceling the head EL should admit the SL behind it")
	}
}

func TestReleaseAll(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	tab.Lock(req(2, 1, ModeExclusive, time.Second))
	w1 := req(1, 2, ModeShared, time.Second)
	w2 := req(2, 3, ModeShared, time.Second)
	tab.Lock(w1)
	tab.Lock(w2)
	grants := tab.ReleaseAll(1)
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2", len(grants))
	}
	if tab.HolderMode(1, 1) != 0 || tab.HolderMode(2, 1) != 0 {
		t.Fatal("owner still holds locks after ReleaseAll")
	}
}

func TestReleaseUnheldIsNoop(t *testing.T) {
	tab := NewTable()
	if g := tab.Release(9, 1); g != nil {
		t.Fatal("release of unheld object returned grants")
	}
}

func TestQueueLenAndHolders(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeExclusive, time.Second))
	tab.Lock(req(1, 2, ModeShared, time.Second))
	tab.Lock(req(1, 3, ModeShared, time.Second))
	if tab.QueueLen(1) != 2 {
		t.Fatalf("QueueLen = %d", tab.QueueLen(1))
	}
	hs := holders(tab, 1)
	if len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("holders = %v", hs)
	}
	if tab.HolderMode(1, 1) != ModeExclusive {
		t.Fatalf("holder 1 mode = %v", tab.HolderMode(1, 1))
	}
}

func TestEntryGarbageCollected(t *testing.T) {
	tab := NewTable()
	tab.Lock(req(1, 1, ModeShared, time.Second))
	e, r := tab.lookup(1), tab.owners[1]
	tab.Release(1, 1)
	if tab.lookup(1) != nil || len(tab.owners) != 0 {
		t.Fatal("empty entry or idle owner record not retired")
	}
	// Both went back to the slab: the next object and owner take them.
	tab.Lock(req(2, 7, ModeShared, time.Second))
	if tab.lookup(2) != e || tab.owners[7] != r {
		t.Fatal("retired entry and owner record not reused")
	}
}

// TestOwnerStateRetired: owners are transaction ids, never reused, so
// whatever the table keeps per owner must go when the owner neither
// holds nor waits. Each round three fresh owners hold, queue behind one
// another, force a deadlock search that visits all three, and release;
// ten thousand rounds leave no entry and no owner record, and a round
// allocates nothing.
func TestOwnerStateRetired(t *testing.T) {
	for name, tb := range map[string]*Table{"sparse": NewTable(), "dense": denseTable(64)} {
		var reqs [6]Request
		next := OwnerID(1)
		round := func() {
			a, b, c := next, next+1, next+2
			next += 3
			lock := func(i int, obj ObjectID, owner OwnerID, want Outcome) {
				reqs[i] = Request{Obj: obj, Owner: owner, Mode: ModeExclusive, Deadline: time.Minute}
				if out, _ := tb.Lock(&reqs[i]); out != want {
					panic(fmt.Sprintf("owner %d on object %d: outcome %v, want %v", owner, obj, out, want))
				}
			}
			lock(0, 1, a, Granted)
			lock(1, 2, b, Granted)
			lock(2, 3, c, Granted)
			lock(3, 2, a, Queued)   // a waits for b
			lock(4, 3, b, Queued)   // b waits for c
			lock(5, 1, c, Deadlock) // the search walks a, b and back to c
			tb.ReleaseAll(c)        // admits b on 3
			tb.ReleaseAll(b)        // admits a on 2
			tb.ReleaseAll(a)
		}
		round()
		if n := testing.AllocsPerRun(10_000, round); n != 0 {
			t.Errorf("%s: a round of fresh owners allocates %v, want 0", name, n)
		}
		if tb.DeadlocksRefused < 10_000 {
			t.Errorf("%s: %d deadlocks refused, want one a round", name, tb.DeadlocksRefused)
		}
		checkEmpty(t, tb)
	}
}

// Property: under random lock/release traffic the table never grants
// conflicting holders and Audit stays clean.
func TestNoConflictingHoldersProperty(t *testing.T) {
	type op struct {
		Obj     uint8
		Owner   uint8
		Mode    uint8
		Release bool
	}
	f := func(ops []op) bool {
		tab := NewTable()
		for i, o := range ops {
			obj := ObjectID(o.Obj % 5)
			owner := OwnerID(o.Owner%6) + 1
			if o.Release {
				tab.Release(obj, owner)
			} else {
				mode := ModeShared
				if o.Mode%2 == 0 {
					mode = ModeExclusive
				}
				tab.Lock(req(obj, owner, mode, time.Duration(i)*time.Millisecond))
			}
			if tab.Audit() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property (liveness): if every holder keeps releasing what it holds,
// every queued request is eventually granted — no waiter is stranded by
// the admission policy.
func TestQueueDrainsProperty(t *testing.T) {
	type op struct {
		Obj   uint8
		Owner uint8
		Mode  uint8
	}
	f := func(ops []op) bool {
		tab := NewTable()
		queued := map[*Request]bool{}
		for i, o := range ops {
			mode := ModeShared
			if o.Mode%2 == 0 {
				mode = ModeExclusive
			}
			r := req(ObjectID(o.Obj%4), OwnerID(o.Owner%5)+1, mode, time.Duration(i))
			outcome, _ := tab.Lock(r)
			if outcome == Queued {
				queued[r] = true
			}
		}
		// Drain: release every holder repeatedly, collecting grants.
		for round := 0; round < len(ops)+8; round++ {
			progress := false
			for obj := ObjectID(0); obj < 4; obj++ {
				for _, h := range holders(tab, obj) {
					for _, g := range tab.Release(obj, h) {
						delete(queued, g)
						progress = true
					}
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		return len(queued) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditReportsLowestObject plants the same violation — two
// exclusive holders — on several objects and checks that Audit names
// the lowest-numbered one with the text it always had, on the dense
// index and on the sparse map, whose iteration order changes from call
// to call.
func TestAuditReportsLowestObject(t *testing.T) {
	const want = "lockmgr: object 7 held incompatibly (0 SL, 2 EL)"
	for name, tb := range map[string]*Table{"sparse": NewTable(), "dense": denseTable(64)} {
		for obj := ObjectID(1); obj < 60; obj++ {
			tb.Lock(&Request{Obj: obj, Owner: 1, Mode: ModeExclusive})
		}
		if err := tb.Audit(); err != nil {
			t.Fatalf("%s: clean table: %v", name, err)
		}
		for _, obj := range []ObjectID{41, 7, 23, 58} {
			e := tb.lookup(obj)
			e.holders = append(e.holders, holderEntry{owner: 2, mode: ModeExclusive})
		}
		for i := 0; i < 50; i++ {
			if err := tb.Audit(); err == nil || err.Error() != want {
				t.Fatalf("%s: Audit = %v, want %q", name, err, want)
			}
		}
	}
}
