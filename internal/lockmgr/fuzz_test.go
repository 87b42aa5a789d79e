package lockmgr

import (
	"slices"
	"testing"
	"time"
)

// FuzzLockTable drives the lock table and the reference table of
// reference_test.go with one byte-encoded operation stream and checks
// after every step that they agree — outcome, conflicting holders, grant
// order, refused deadlocks, holders, queues — that every owner's waiting
// index lists exactly the requests queued under its name and its edge set
// is the one the reference's queue scan finds, and the safety invariants:
// no incompatible holders, no granted request left queued, a full drain
// always succeeds, and a drained table keeps no entry and no owner
// record.
//
// A byte is one operation on object b&3 by owner (b>>2)&7 + 1. With the
// top bit clear it is a Lock, exclusive if 0x40 is set, with the step's
// number as its deadline or, if 0x20 is set, zero: the head of the queue.
// With it set, 0x40 and 0x20 choose among Release (neither), Downgrade
// (0x40), ReleaseAll (0x20) and Cancel (both) — of the owner's first
// request queued on the object or, when it has none there, of its last.
func FuzzLockTable(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x81, 0x92})
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x80, 0x90, 0xa0})
	f.Add([]byte{0x05, 0x15, 0x05, 0x85})
	// An upgrade queued behind a reader, canceled; a downgrade that
	// admits two readers; a ReleaseAll under a two-object waiter; the
	// second of an owner's two queued requests canceled.
	f.Add([]byte{0x00, 0x04, 0x40, 0xe0, 0x84})
	f.Add([]byte{0x41, 0x05, 0x29, 0xc1, 0x85})
	f.Add([]byte{0x44, 0x45, 0x08, 0x09, 0x4c, 0xa4, 0xe9, 0xa8})
	f.Add([]byte{0x40, 0x41, 0x04, 0x05, 0xe5, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, ref := NewTable(), newRefTable()
		var reqs []*Request // by id, as the reference's
		var refs []*refReq
		var last [4][9]int64 // the id of each (object, owner)'s last request
		for i, b := range data {
			obj := ObjectID(b & 0x03)
			owner := OwnerID((b>>2)&0x07) + 1
			var grants []*Request
			var want []int64
			switch b & 0xe0 {
			case 0x80:
				grants, want = tab.Release(obj, owner), ref.release(obj, owner)
			case 0xc0:
				grants, want = tab.Downgrade(obj, owner), ref.downgrade(obj, owner)
			case 0xa0:
				grants, want = tab.ReleaseAll(owner), ref.releaseAll(owner)
			case 0xe0:
				if len(reqs) == 0 {
					continue // nothing was ever requested
				}
				id := last[obj][owner]
				for _, q := range ref.queues[obj] {
					if q.owner == owner {
						id = q.id
						break
					}
				}
				grants, want = tab.Cancel(reqs[id]), ref.cancel(refs[id])
			default:
				mode := ModeShared
				if b&0x40 != 0 {
					mode = ModeExclusive
				}
				deadline := time.Duration(i) * time.Millisecond
				if b&0x20 != 0 {
					deadline = 0
				}
				id := int64(len(reqs))
				reqs = append(reqs, &Request{Obj: obj, Owner: owner, Mode: mode, Deadline: deadline, Tag: id})
				refs = append(refs, &refReq{id: id, obj: obj, owner: owner, mode: mode, deadline: deadline})
				last[obj][owner] = id
				out, conf := tab.Lock(reqs[id])
				wantOut, wantConf := ref.lock(refs[id])
				if out != wantOut || !slices.Equal(conf, wantConf) {
					t.Fatalf("step %d: Lock = %v %v, reference %v %v", i, out, conf, wantOut, wantConf)
				}
			}
			if got := tags(grants); !slices.Equal(got, want) {
				t.Fatalf("step %d (%#02x): granted %v, reference %v", i, b, got, want)
			}
			if tab.DeadlocksRefused != ref.refused {
				t.Fatalf("step %d: %d deadlocks refused, reference %d", i, tab.DeadlocksRefused, ref.refused)
			}
			if err := tab.Audit(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			agree(t, i, tab, ref)
		}
		// Drain: repeated releases must eventually empty every queue.
		for round := 0; round < len(data)+8; round++ {
			progress := false
			for obj := ObjectID(0); obj < 4; obj++ {
				for _, h := range holders(tab, obj) {
					tab.Release(obj, h)
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		for obj := ObjectID(0); obj < 4; obj++ {
			if tab.QueueLen(obj) != 0 {
				t.Fatalf("object %d queue not drained: %d waiters", obj, tab.QueueLen(obj))
			}
			for w := OwnerID(1); w <= 8; w++ {
				if tab.HasWaiter(obj, w) {
					t.Fatalf("drained table still reports waiter %d on object %d", w, obj)
				}
			}
		}
		// Every owner has released and nobody waits: nothing is kept.
		checkEmpty(t, tab)
	})
}

// tags returns the ids of the requests in a grant list.
func tags(grants []*Request) []int64 {
	var ids []int64
	for _, g := range grants {
		ids = append(ids, g.Tag)
	}
	return ids
}

// agree fails unless tab and ref hold the same state: every object's
// holders and queue, and every owner's waiting index and edge set.
func agree(t *testing.T, step int, tab *Table, ref *refTable) {
	t.Helper()
	queued := map[OwnerID][]*Request{} // by owner, from the queues themselves
	for obj := ObjectID(0); obj < 4; obj++ {
		n := tab.HolderCount(obj)
		if n != len(ref.holders[obj]) {
			t.Fatalf("step %d: object %d has %d holders, reference %d", step, obj, n, len(ref.holders[obj]))
		}
		for k := 0; k < n; k++ {
			if h, m := tab.HolderAt(obj, k); ref.holders[obj][h] != m {
				t.Fatalf("step %d: object %d held by %d in %v, reference %v", step, obj, h, m, ref.holders[obj][h])
			}
		}
		var queue []*Request
		if e := tab.lookup(obj); e != nil {
			queue = e.queue
		}
		if len(queue) != len(ref.queues[obj]) {
			t.Fatalf("step %d: object %d has %d waiters, reference %d", step, obj, len(queue), len(ref.queues[obj]))
		}
		for k, q := range queue {
			if q.Tag != ref.queues[obj][k].id {
				t.Fatalf("step %d: object %d queue position %d holds request %d, reference %d",
					step, obj, k, q.Tag, ref.queues[obj][k].id)
			}
			queued[q.Owner] = append(queued[q.Owner], q)
		}
	}
	byTag := func(a, b *Request) int { return int(a.Tag - b.Tag) }
	for w := OwnerID(1); w <= 8; w++ {
		var waiting []*Request
		var edges []OwnerID
		if r := tab.owners[w]; r != nil {
			waiting, edges = slices.Clone(r.waiting), r.edges
		}
		slices.SortFunc(waiting, byTag)
		slices.SortFunc(queued[w], byTag)
		if !slices.Equal(waiting, queued[w]) {
			t.Fatalf("step %d: owner %d's waiting index lists %v, the queues hold %v", step, w, tags(waiting), tags(queued[w]))
		}
		if want := ref.edgeList(w); !slices.Equal(edges, want) {
			t.Fatalf("step %d: owner %d waits for %v, the reference's scan finds %v", step, w, edges, want)
		}
		for obj := ObjectID(0); obj < 4; obj++ {
			has := slices.ContainsFunc(queued[w], func(q *Request) bool { return q.Obj == obj })
			if got := tab.HasWaiter(obj, w); got != has {
				t.Fatalf("step %d: HasWaiter(%d,%d) = %v, the queue says %v", step, obj, w, got, has)
			}
		}
	}
}
