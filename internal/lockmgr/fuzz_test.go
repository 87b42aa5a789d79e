package lockmgr

import (
	"testing"
	"time"
)

// FuzzLockTable drives the lock table with an arbitrary byte-encoded
// operation stream and checks the safety invariants after every step:
// no incompatible holders, no granted request left queued, a full drain
// always succeeds, and a drained table keeps no entry and no owner
// record.
func FuzzLockTable(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x81, 0x92})
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x80, 0x90, 0xa0})
	f.Add([]byte{0x05, 0x15, 0x05, 0x85})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := NewTable()
		for i, b := range data {
			obj := ObjectID(b & 0x03)
			owner := OwnerID((b>>2)&0x07) + 1
			release := b&0x80 != 0
			mode := ModeShared
			if b&0x40 != 0 {
				mode = ModeExclusive
			}
			if release {
				tab.Release(obj, owner)
			} else {
				tab.Lock(&Request{
					Obj: obj, Owner: owner, Mode: mode,
					Deadline: time.Duration(i) * time.Millisecond,
				})
			}
			if err := tab.Audit(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			// HasWaiter (the retry path's idempotence probe) must agree
			// with the queue: a reported waiter implies a non-empty queue.
			for o := ObjectID(0); o < 4; o++ {
				for w := OwnerID(1); w <= 8; w++ {
					if tab.HasWaiter(o, w) && tab.QueueLen(o) == 0 {
						t.Fatalf("step %d: HasWaiter(%d,%d) on an empty queue", i, o, w)
					}
				}
			}
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
