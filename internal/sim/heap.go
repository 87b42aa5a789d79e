package sim

import "time"

// The event queue is two queues over one pool of event payload records
// addressed by index: a FIFO of the events posted for the current
// instant (ready), and a concrete (monomorphic) 4-ary min-heap of small
// value entries for everything due later. Close to half of all events
// are zero-delay resumes, signal wakes and grants; they never touch the
// heap. Splitting entries from payloads keeps the parts the heap moves
// and compares — (time, sequence, index) — in 24 contiguous bytes, so
// sift operations never chase pointers, and lets fired or canceled
// events be recycled through a free list instead of becoming garbage.
// A 4-ary layout halves the tree depth of a binary heap.
//
// Canceling marks a record dead and leaves its entry queued, to be
// skipped when it comes up. Almost every deadline timeout is canceled
// long before its deadline, so the heap counts its dead entries, and
// once they outnumber the live ones (in a heap of at least minEventPool
// entries) it drops them all and re-heapifies in place: the heap never
// holds more than twice its live entries, at O(1) amortized per cancel.
//
// Determinism: ordering is exactly (at, seq) — see Env.front for why
// the FIFO preserves it — so event execution order, and therefore every
// golden file, is independent of where an entry waits.

// eventKind discriminates the payload of a pooled event record. The
// non-func kinds are closure-free fast paths for the dominant event
// shapes; they let the steady-state loop run without allocating.
type eventKind uint8

const (
	// evFunc runs an arbitrary callback.
	evFunc eventKind = iota
	// evResume resumes a blocked task (Sleep, Signal wake, Resource
	// grant, machine spawn) — a goroutine handoff for processes, a
	// direct Machine.Resume call for state machines.
	evResume
	// evHook invokes an EventHook (e.g. netsim message delivery).
	evHook
	// evSignalTimeout expires a WaitTimeout.
	evSignalTimeout
	// evResTimeout expires an AcquireTimeout.
	evResTimeout
)

// eventRec is a pooled event payload. Records live in Env.pool and are
// addressed by heap-entry index; gen increments on every recycle so
// stale Timer handles can detect that their event is gone. ready marks
// a record queued on the ready FIFO rather than the heap, so a cancel
// counts only heap entries toward compaction. freed marks records
// currently on the free list, which lets the pool-shrink pass trim
// trailing idle records after a burst drains.
type eventRec struct {
	kind     eventKind
	canceled bool
	ready    bool
	freed    bool
	gen      uint32
	fn       func()
	task     *Task
	hook     EventHook
}

// heapEnt is one entry of the 4-ary min-heap: the comparison key plus
// the index of the payload record in Env.pool.
type heapEnt struct {
	at  time.Duration
	seq int64
	idx int32
}

func entLess(a, b heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// minEventPool is the record count below which the pool is never
// trimmed; it keeps the shrink pass entirely off the steady-state path
// of small models and micro-benchmarks.
const minEventPool = 64

// allocEvent returns a free pool index, reusing recycled records first.
// Free-list entries can be stale (their record was trimmed away by
// shrinkPool); those are discarded lazily here.
func (e *Env) allocEvent() int32 {
	for n := len(e.free); n > 0; n = len(e.free) {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		if int(idx) < len(e.pool) {
			e.pool[idx].freed = false
			return idx
		}
	}
	e.pool = append(e.pool, eventRec{gen: e.genFloor})
	return int32(len(e.pool) - 1)
}

// recycle returns a record to the free list, dropping payload
// references and invalidating outstanding Timer handles. When the
// recycled record leaves the pool with an idle tail, the pool is
// trimmed so a drained burst does not hold its peak footprint forever.
func (e *Env) recycle(idx int32) {
	e.release(idx)
	e.trimIdleTail()
}

// release is recycle without the trim check.
func (e *Env) release(idx int32) {
	rec := &e.pool[idx]
	rec.gen++
	rec.fn = nil
	rec.task = nil
	rec.hook = nil
	rec.canceled = false
	rec.freed = true
	e.free = append(e.free, idx)
}

func (e *Env) trimIdleTail() {
	if len(e.pool) > minEventPool && e.pool[len(e.pool)-1].freed {
		e.shrinkPool()
	}
}

// shrinkPool drops trailing idle records from the event pool. Records
// in the middle of the pool cannot move (live heap entries and Timer
// handles address them by index), so the policy is: trim the freed
// tail, lazily discard the free-list entries that pointed at it, and
// when a trim reclaims a meaningful chunk also give the backing arrays
// back to the allocator. Each call removes at least one record, so the
// total work is amortized by pool growth; genFloor keeps the gen
// counters of future records at that index ahead of any Timer handle
// issued before the trim.
func (e *Env) shrinkPool() {
	n := len(e.pool)
	for n > minEventPool && e.pool[n-1].freed {
		if g := e.pool[n-1].gen + 1; g > e.genFloor {
			e.genFloor = g
		}
		n--
	}
	trimmed := len(e.pool) - n
	if trimmed == 0 {
		return
	}
	e.pool = e.pool[:n]
	if trimmed < minEventPool {
		// Small trim: leave the stale free-list entries for allocEvent
		// to discard, keeping this call O(trimmed).
		return
	}
	w := 0
	for _, idx := range e.free {
		if int(idx) < n {
			e.free[w] = idx
			w++
		}
	}
	e.free = e.free[:w]
	if cap(e.free) >= 4*minEventPool && 4*len(e.free) < cap(e.free) {
		e.free = append(make([]int32, 0, 2*len(e.free)+minEventPool), e.free...)
	}
	if cap(e.pool) >= 4*minEventPool && 4*len(e.pool) < cap(e.pool) {
		e.pool = append(make([]eventRec, 0, 2*len(e.pool)+minEventPool), e.pool...)
	}
	if cap(e.events) >= 4*minEventPool && 4*len(e.events) < cap(e.events) {
		e.events = append(make([]heapEnt, 0, 2*len(e.events)+minEventPool), e.events...)
	}
	if n := len(e.ready) - e.readyHead; cap(e.ready) >= 4*minEventPool && 4*n < cap(e.ready) {
		e.ready = append(make([]int32, 0, 2*n+minEventPool), e.ready[e.readyHead:]...)
		e.readyHead = 0
	}
}

// pushReady appends idx to the ready FIFO. When the FIFO is full and at
// least half of it is consumed, the unconsumed part moves to the front
// first, so a long chain of same-instant events runs in bounded space.
func (e *Env) pushReady(idx int32) {
	if len(e.ready) == cap(e.ready) && e.readyHead > 0 && 2*e.readyHead >= len(e.ready) {
		n := copy(e.ready, e.ready[e.readyHead:])
		e.ready = e.ready[:n]
		e.readyHead = 0
	}
	e.ready = append(e.ready, idx)
}

// popReady removes and returns the head of the ready FIFO; a drained
// FIFO rewinds to the start of its array.
func (e *Env) popReady() int32 {
	idx := e.ready[e.readyHead]
	e.readyHead++
	if e.readyHead == len(e.ready) {
		e.ready = e.ready[:0]
		e.readyHead = 0
	}
	return idx
}

// halfDead reports whether the heap's canceled entries are more than
// half of a heap of at least minEventPool entries. Every heap push, live
// pop and cancel checks it, so the heap never holds more than
// max(minEventPool, 2 × live) entries.
func (e *Env) halfDead() bool {
	return 2*e.dead > len(e.events) && len(e.events) >= minEventPool
}

// compact drops the heap's canceled entries, recycling their records,
// and rebuilds the heap in place bottom-up (Floyd's construction,
// O(n)). It runs when halfDead, so the rebuild is paid for by the more
// than n/2 cancels since the last one.
func (e *Env) compact() {
	h := e.events
	w := 0
	for _, ent := range h {
		if e.pool[ent.idx].canceled {
			e.release(ent.idx)
		} else {
			h[w] = ent
			w++
		}
	}
	e.events = h[:w]
	e.dead = 0
	for i := (w - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, h[i])
	}
	e.trimIdleTail()
}

func (e *Env) heapPush(ent heapEnt) {
	e.events = append(e.events, ent)
	// Sift up.
	h := e.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entLess(ent, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

func (e *Env) heapPop() heapEnt {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.events = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
	return top
}

// siftDown places ent, notionally at index i, into its final position
// in the subtree rooted there.
func (e *Env) siftDown(i int, ent heapEnt) {
	h := e.events
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entLess(h[c], h[best]) {
				best = c
			}
		}
		if !entLess(h[best], ent) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ent
}
