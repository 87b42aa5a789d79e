package cache

import (
	"testing"
	"testing/quick"

	"siteselect/internal/lockmgr"
)

// refLRU is a deliberately naive single-tier LRU used as an oracle: the
// two-tier cache, viewed as one combined capacity, must keep exactly the
// same object set as a plain LRU over the same access sequence (while
// nothing is pinned, recency order is all that matters).
type refLRU struct {
	cap   int
	order []lockmgr.ObjectID // front = most recent
}

func (r *refLRU) touch(obj lockmgr.ObjectID) {
	for i, o := range r.order {
		if o == obj {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.order = append([]lockmgr.ObjectID{obj}, r.order...)
	if len(r.order) > r.cap {
		r.order = r.order[:r.cap]
	}
}

func (r *refLRU) contains(obj lockmgr.ObjectID) bool {
	for _, o := range r.order {
		if o == obj {
			return true
		}
	}
	return false
}

// TestTwoTierMatchesLRUOracle drives the two-tier cache and a reference
// LRU with the same access stream and compares residency after every
// step. Demotion to the disk tier must behave exactly like LRU aging in
// the combined cache.
func TestTwoTierMatchesLRUOracle(t *testing.T) {
	f := func(accesses []uint8, memCap, diskCap uint8) bool {
		mc := int(memCap%3) + 1
		dc := int(diskCap % 4)
		c := New(mc, dc)
		ref := &refLRU{cap: mc + dc}
		for _, a := range accesses {
			obj := lockmgr.ObjectID(a % 12)
			if e, _, _ := c.Lookup(obj); e == nil {
				c.Insert(obj, lockmgr.ModeShared, false, 0)
			}
			ref.touch(obj)
			// Residency must agree exactly.
			for id := lockmgr.ObjectID(0); id < 12; id++ {
				if (c.Peek(id) != nil) != ref.contains(id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
