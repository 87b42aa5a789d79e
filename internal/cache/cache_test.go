package cache

import (
	"testing"
	"testing/quick"

	"siteselect/internal/lockmgr"
)

func TestInsertAndLookup(t *testing.T) {
	c := New(2, 2)
	if ev := c.Insert(1, lockmgr.ModeShared, false, 7); ev != nil {
		t.Fatalf("unexpected evictions: %v", ev)
	}
	e, tier, _ := c.Lookup(1)
	if e == nil || tier != TierMemory {
		t.Fatalf("lookup = %v tier %v", e, tier)
	}
	if e.Mode != lockmgr.ModeShared || e.Version != 7 {
		t.Fatalf("entry = %+v", e)
	}
	if _, tier, _ := c.Lookup(9); tier != TierNone {
		t.Fatal("missing object should be TierNone")
	}
	if c.MemoryHits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.MemoryHits, c.Misses)
	}
}

// A cache makes its entry map on the first Insert: at population scale
// half the sites never cache anything, and every read of a cache that
// never did answers "empty" from the nil map.
func TestEntryMapMadeByFirstInsert(t *testing.T) {
	c := New(4, 2)
	if c.entries != nil {
		t.Fatal("a new cache already has an entry map")
	}
	reads := func() {
		if c.Peek(1) != nil || c.Contains(1) || c.Len() != 0 || c.Remove(1) != nil {
			panic("an empty cache holds object 1")
		}
		if e, tier, evicted := c.Lookup(1); e != nil || tier != TierNone || evicted != nil {
			panic("an empty cache served object 1")
		}
		c.Visit(func(*Entry) { panic("an empty cache visits an entry") })
	}
	if n := testing.AllocsPerRun(100, reads); n != 0 {
		t.Errorf("reads of an empty cache allocate %v per run, want 0", n)
	}
	if c.entries != nil {
		t.Fatal("a read made the entry map")
	}
	c.Insert(1, lockmgr.ModeShared, false, 1)
	if !c.Contains(1) || c.Len() != 1 {
		t.Fatal("first insert lost")
	}
}

func TestMemoryOverflowDemotesToDisk(t *testing.T) {
	c := New(2, 2)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	c.Insert(2, lockmgr.ModeShared, false, 0)
	c.Insert(3, lockmgr.ModeShared, false, 0) // demotes 1
	e := c.Peek(1)
	if e == nil || e.Tier() != TierDisk {
		t.Fatalf("entry 1 = %+v, want disk tier", e)
	}
	if c.Peek(3).Tier() != TierMemory {
		t.Fatal("entry 3 should be in memory")
	}
}

func TestDiskOverflowEvicts(t *testing.T) {
	c := New(1, 1)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	c.Insert(2, lockmgr.ModeShared, false, 0) // 1 -> disk
	ev := c.Insert(3, lockmgr.ModeExclusive, true, 0)
	// 2 -> disk pushes 1 out entirely.
	if len(ev) != 1 || ev[0].Obj != 1 {
		t.Fatalf("evicted = %v", ev)
	}
	if c.Contains(1) || !c.Contains(2) || !c.Contains(3) {
		t.Fatal("residency wrong after disk eviction")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if ev[0].Tier() != TierNone {
		t.Fatal("evicted entry should report TierNone")
	}
}

func TestZeroDiskCapacityEvictsFromMemory(t *testing.T) {
	c := New(1, 0)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	ev := c.Insert(2, lockmgr.ModeShared, false, 0)
	if len(ev) != 1 || ev[0].Obj != 1 {
		t.Fatalf("evicted = %v", ev)
	}
}

func TestDiskHitPromotes(t *testing.T) {
	c := New(1, 2)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	c.Insert(2, lockmgr.ModeShared, false, 0) // 1 -> disk
	e, tier, _ := c.Lookup(1)
	if tier != TierDisk {
		t.Fatalf("tier = %v, want disk", tier)
	}
	if e.Tier() != TierMemory {
		t.Fatal("disk hit should promote to memory")
	}
	// 2 must now be on disk.
	if c.Peek(2).Tier() != TierDisk {
		t.Fatal("promotion should demote the memory victim")
	}
	if c.DiskHits != 1 {
		t.Fatalf("disk hits = %d", c.DiskHits)
	}
}

func TestLRUOrderRespectsRecency(t *testing.T) {
	c := New(2, 0)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	c.Insert(2, lockmgr.ModeShared, false, 0)
	c.Lookup(1) // 2 becomes LRU
	ev := c.Insert(3, lockmgr.ModeShared, false, 0)
	if len(ev) != 1 || ev[0].Obj != 2 {
		t.Fatalf("evicted = %v, want object 2", ev)
	}
}

func TestPinnedEntriesSurviveEviction(t *testing.T) {
	c := New(1, 0)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	e := c.Peek(1)
	c.Pin(e)
	ev := c.Insert(2, lockmgr.ModeShared, false, 0)
	if len(ev) != 0 {
		t.Fatalf("pinned-era eviction = %v", ev)
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("transient overflow should keep both")
	}
	c.Unpin(e)
	ev = c.Insert(3, lockmgr.ModeShared, false, 0)
	if len(ev) == 0 {
		t.Fatal("after unpin, eviction should proceed")
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	c := New(1, 0)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin underflow did not panic")
		}
	}()
	c.Unpin(c.Peek(1))
}

func TestRemove(t *testing.T) {
	c := New(2, 2)
	c.Insert(1, lockmgr.ModeExclusive, true, 3)
	e := c.Remove(1)
	if e == nil || e.Obj != 1 || !e.Dirty {
		t.Fatalf("removed = %+v", e)
	}
	if c.Contains(1) {
		t.Fatal("entry still present after Remove")
	}
	if c.Remove(1) != nil {
		t.Fatal("double remove should return nil")
	}
}

func TestRemovePinnedPanics(t *testing.T) {
	c := New(2, 2)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	c.Pin(c.Peek(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of pinned entry did not panic")
		}
	}()
	c.Remove(1)
}

func TestInsertExistingUpgradesInPlace(t *testing.T) {
	c := New(2, 2)
	c.Insert(1, lockmgr.ModeShared, false, 1)
	ev := c.Insert(1, lockmgr.ModeExclusive, true, 2)
	if ev != nil {
		t.Fatalf("in-place update evicted: %v", ev)
	}
	e := c.Peek(1)
	if e.Mode != lockmgr.ModeExclusive || !e.Dirty || e.Version != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestDirtyStickyOnReinsert(t *testing.T) {
	c := New(2, 2)
	c.Insert(1, lockmgr.ModeExclusive, true, 1)
	c.Insert(1, lockmgr.ModeShared, false, 1)
	if !c.Peek(1).Dirty {
		t.Fatal("dirty flag lost on reinsert")
	}
}

// Property: tier occupancy never exceeds capacity (without pins) and
// every entry is tracked exactly once.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(objs []uint8, memCap, diskCap uint8) bool {
		mc := int(memCap%4) + 1
		dc := int(diskCap % 4)
		c := New(mc, dc)
		for _, o := range objs {
			obj := lockmgr.ObjectID(o % 16)
			if o%3 == 0 {
				c.Lookup(obj)
			} else {
				c.Insert(obj, lockmgr.ModeShared, o%5 == 0, int64(o))
			}
			mem, disk, other := 0, 0, 0
			c.Visit(func(e *Entry) {
				switch e.Tier() {
				case TierMemory:
					mem++
				case TierDisk:
					disk++
				default:
					other++
				}
			})
			if other > 0 || mem > mc || disk > dc {
				return false
			}
			if mem+disk != c.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
