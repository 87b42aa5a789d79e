package cache

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"siteselect/internal/lockmgr"
	"siteselect/internal/slab"
)

// size counts c's entries.
func size(c *Cache) int {
	n := 0
	c.Visit(func(*Entry) { n++ })
	return n
}

func TestInsertAndLookup(t *testing.T) {
	c := New(2, 2)
	if ev := c.Insert(1, lockmgr.ModeShared, false, 7); ev != nil {
		t.Fatalf("unexpected evictions: %v", ev)
	}
	e, tier, _ := c.Lookup(1)
	if e == nil || tier != TierMemory {
		t.Fatalf("lookup = %v tier %v", e, tier)
	}
	if e.Mode() != lockmgr.ModeShared || e.Version != 7 {
		t.Fatalf("entry = %+v", e)
	}
	if _, tier, _ := c.Lookup(9); tier != TierNone {
		t.Fatal("missing object should be TierNone")
	}
}

// A cache takes storage for its entry index from the slab at the first
// Insert, not before: at population scale half the sites never cache
// anything, and every read of a cache that never did answers "empty"
// from the zero index. The last entry to leave hands the storage back.
func TestNoIndexStorageBeforeFirstInsert(t *testing.T) {
	c := New(4, 2)
	var none slab.Index[*Entry]
	if c.entries != none {
		t.Fatal("a new cache already has index storage")
	}
	reads := func() {
		if c.Peek(1) != nil || c.Remove(1) != nil {
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
	if c.entries != none {
		t.Fatal("a read took index storage")
	}
	c.Insert(1, lockmgr.ModeShared, false, 1)
	if c.Peek(1) == nil || size(c) != 1 {
		t.Fatal("first insert lost")
	}
	c.Recycle(c.Remove(1))
	if c.entries != none {
		t.Error("an emptied cache kept its index storage")
	}
}

func TestMemoryOverflowDemotesToDisk(t *testing.T) {
	c := New(2, 2)
	c.Insert(1, lockmgr.ModeShared, false, 0)
	c.Insert(2, lockmgr.ModeShared, false, 0)
	c.Insert(3, lockmgr.ModeShared, false, 0) // demotes 1
	e := c.Peek(1)
	if e == nil || e.tier != TierDisk {
		t.Fatalf("entry 1 = %+v, want disk tier", e)
	}
	if c.Peek(3).tier != TierMemory {
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
	if c.Peek(1) != nil || c.Peek(2) == nil || c.Peek(3) == nil {
		t.Fatal("residency wrong after disk eviction")
	}
	if size(c) != 2 {
		t.Fatalf("len = %d", size(c))
	}
	if ev[0].tier != TierNone {
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
	if e.tier != TierMemory {
		t.Fatal("disk hit should promote to memory")
	}
	// 2 must now be on disk.
	if c.Peek(2).tier != TierDisk {
		t.Fatal("promotion should demote the memory victim")
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
	if c.Peek(1) == nil || c.Peek(2) == nil {
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
	if e == nil || e.Obj != 1 || !e.Dirty() {
		t.Fatalf("removed = %+v", e)
	}
	if c.Peek(1) != nil {
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
	if e.Mode() != lockmgr.ModeExclusive || !e.Dirty() || e.Version != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if size(c) != 1 {
		t.Fatalf("len = %d", size(c))
	}
}

func TestDirtyStickyOnReinsert(t *testing.T) {
	c := New(2, 2)
	c.Insert(1, lockmgr.ModeExclusive, true, 1)
	c.Insert(1, lockmgr.ModeShared, false, 1)
	if !c.Peek(1).Dirty() {
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
				switch e.tier {
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
			if mem+disk != size(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWatchedCacheReportsEveryChange: every operation that leaves an
// object cached with another mode or dirty flag than before — a new
// copy included — reports it, under the cache's site, to the watching
// monitor's list; an entry that only moves between tiers, or leaves, need
// not be reported. The operations run over six objects in a cache of
// two plus two, so promotions, demotions and evictions all happen.
func TestWatchedCacheReportsEveryChange(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(2, 2)
		var touched []lockmgr.Touch
		c.Watch(7, &touched)
		var pinned []*Entry
		state := func(obj lockmgr.ObjectID) string {
			if e := c.Peek(obj); e != nil {
				return fmt.Sprint(e.Mode(), e.Dirty())
			}
			return "-"
		}
		for i, op := range ops {
			obj := lockmgr.ObjectID(op % 6)
			mode := lockmgr.Mode(op>>3&1) + lockmgr.ModeShared
			dirty := op&0x10 != 0
			var before [6]string
			for o := range before {
				before[o] = state(lockmgr.ObjectID(o))
			}
			touched = touched[:0]
			e := c.Peek(obj)
			switch op >> 5 & 7 {
			case 0, 1:
				c.Insert(obj, mode, dirty, int64(i))
			case 2:
				c.Lookup(obj)
			case 3:
				if e != nil {
					c.SetMode(e, mode)
				}
			case 4:
				if e != nil {
					c.SetDirty(e, dirty)
				}
			case 5:
				if e != nil {
					c.Downgrade(e)
				}
			case 6:
				if e != nil && !e.Pinned() {
					c.Recycle(c.Remove(obj))
				}
			default:
				if e != nil && len(pinned) < 2 {
					c.Pin(e)
					pinned = append(pinned, e)
				} else if len(pinned) > 0 {
					c.Unpin(pinned[0])
					pinned = pinned[1:]
				}
			}
			for o, was := range before {
				now := state(lockmgr.ObjectID(o))
				if now != was && now != "-" && !slices.Contains(touched, lockmgr.Touch{Site: 7, Obj: lockmgr.ObjectID(o)}) {
					t.Logf("op %d (%#x): object %d went from %s to %s unreported (touched %v)", i, op, o, was, now, touched)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
