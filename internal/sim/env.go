// Package sim provides a deterministic discrete-event simulation kernel.
//
// Virtual time is a time.Duration measured from the start of the
// simulation. All model concurrency is cooperative: the kernel runs
// exactly one actor at a time, so model code never needs locks and every
// run with the same inputs produces the same event order. Ties in the
// event queue are broken by scheduling sequence number, which makes the
// order fully reproducible.
//
// Actors are state machines: a Machine parks on a kernel primitive
// (timer, Signal, Resource) through its embedded Task, returns from
// Resume, and is resumed by a direct method call from the event loop,
// with no goroutine or channel handoff. An actor that waits only on the
// clock or on a mailbox is not a machine but an EventHook: the clock
// posts it (AtHook), and so does a Put into the mailbox it reads. A
// typical model creates an Env, starts machines with Spawn, posts its
// hooks, and then calls Run.
//
// Proc, the goroutine-process form the kernel started with, is a
// legacy: a Machine whose Resume hands the token to a goroutine. No
// model code uses it; it stays only for bench/drivers.go, which
// measures that handoff (see docs/KERNEL.md for the removal condition).
//
// The kernel is built for a steady state that allocates nothing: event
// records are pooled and recycled through a free list, the queue is a
// FIFO of events due at the current instant beside a monomorphic 4-ary
// heap of later ones, from which canceled timers are compacted out (see
// heap.go), and the dominant event shapes (task resume, hook delivery,
// wait timeouts) avoid closures entirely. See DESIGN.md "Kernel
// internals and performance".
package sim

import (
	"fmt"
	"time"
)

// Env is a simulation environment: a virtual clock and an event queue.
// An Env is not safe for concurrent use; it is driven from a single
// goroutine (the one calling Run/Step) and from the actors it resumes,
// which by construction never run at the same time.
type Env struct {
	now    time.Duration
	events []heapEnt  // 4-ary min-heap keyed by (at, seq)
	pool   []eventRec // event payloads, addressed by heapEnt.idx
	free   []int32    // recycled pool indices
	seq    int64

	// ready is the FIFO of pool indices posted for the current instant,
	// consumed from readyHead; front says how it interleaves with the
	// heap. dead counts the canceled entries still in the heap.
	ready     []int32
	readyHead int
	dead      int

	// genFloor is the starting generation for records appended after a
	// pool trim; it stays ahead of every Timer handle issued for a
	// trimmed index so regrown records can never alias a stale handle.
	genFloor uint32

	// tasks is the live-actor registry in spawn order (nil holes mark
	// detached tasks); Close walks it in order so teardown diagnostics
	// are reproducible.
	tasks     []*Task
	liveTasks int
	closed    bool

	// stepCount counts executed events, for introspection and tests.
	stepCount int64

	// stepHook, when set, runs after every executed event (invariant
	// monitoring). Nil in normal runs so Step stays allocation- and
	// call-free on the hot path.
	stepHook func()
}

// NewEnv returns an environment with the clock at zero and no pending
// events.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Steps returns the number of events executed so far.
func (e *Env) Steps() int64 { return e.stepCount }

// Live returns the number of registered (spawned or adopted, and not yet
// detached) actors.
func (e *Env) Live() int { return e.liveTasks }

// Pending returns the number of events queued and not canceled: those
// due now in the ready FIFO and the later ones in the heap.
func (e *Env) Pending() int {
	n := len(e.events) - e.dead
	for _, idx := range e.ready[e.readyHead:] {
		if !e.pool[idx].canceled {
			n++
		}
	}
	return n
}

// SetStepHook installs fn to run after every executed event, or removes
// the hook when fn is nil. The invariant monitor uses it to re-check
// model invariants continuously; the hook must not schedule events or
// block.
func (e *Env) SetStepHook(fn func()) { e.stepHook = fn }

// EventHook is a closure-free scheduled callback: ScheduleHook/AtHook
// queue the hook itself instead of a func(), so a long-lived object
// (e.g. a network with its own pending-delivery ring) can receive
// events with zero per-event allocation.
type EventHook interface {
	RunEvent()
}

// Timer is a handle to a scheduled event that can be canceled before it
// fires. Canceling the zero Timer is a no-op.
type Timer struct {
	env *Env
	idx int32
	gen uint32
}

// Cancel prevents the timer's event from firing. Canceling an already
// fired or already canceled timer is a no-op. (The index bound check
// covers handles whose record was trimmed by the pool-shrink pass.)
// The entry stays queued and is skipped when it comes up, unless it is
// in a heap of at least minEventPool entries whose canceled entries now
// outnumber its live ones: then they are all compacted out.
func (t Timer) Cancel() {
	e := t.env
	if e == nil || int(t.idx) >= len(e.pool) {
		return
	}
	rec := &e.pool[t.idx]
	if rec.gen != t.gen || rec.canceled {
		return
	}
	rec.canceled = true
	if !rec.ready {
		e.dead++
		if e.halfDead() {
			e.compact()
		}
	}
}

// post allocates a pooled event of the given kind at absolute time t
// and queues it: on the ready FIFO when t is the current instant, on
// the heap otherwise. The caller fills in the payload via the returned
// index. Scheduling in the past is a model error and panics.
func (e *Env) post(t time.Duration, kind eventKind) int32 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	idx := e.allocEvent()
	rec := &e.pool[idx]
	rec.kind = kind
	rec.ready = t == e.now
	if rec.ready {
		e.pushReady(idx)
	} else {
		e.heapPush(heapEnt{at: t, seq: e.seq, idx: idx})
		if e.halfDead() {
			e.compact()
		}
	}
	return idx
}

// Schedule runs fn after delay of virtual time. A non-positive delay
// schedules fn at the current time, after all events already scheduled for
// the current time. The returned Timer may be used to cancel the event.
func (e *Env) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past is an
// error in the model and panics.
func (e *Env) At(t time.Duration, fn func()) Timer {
	idx := e.post(t, evFunc)
	e.pool[idx].fn = fn
	return Timer{env: e, idx: idx, gen: e.pool[idx].gen}
}

// AtHook runs h.RunEvent at absolute virtual time t, like At but
// without a closure: the steady-state cost is one pooled event record.
func (e *Env) AtHook(t time.Duration, h EventHook) Timer {
	idx := e.post(t, evHook)
	e.pool[idx].hook = h
	return Timer{env: e, idx: idx, gen: e.pool[idx].gen}
}

// scheduleResume queues a closure-free resume of tk at absolute time
// t. It is the fast path under Sleep, Signal wakeups, Resource grants,
// and machine spawns.
func (e *Env) scheduleResume(t time.Duration, tk *Task) {
	idx := e.post(t, evResume)
	e.pool[idx].task = tk
}

// scheduleTimeout queues a closure-free timeout event for tk (kind
// evSignalTimeout or evResTimeout) and returns its cancellation handle.
func (e *Env) scheduleTimeout(t time.Duration, kind eventKind, tk *Task) Timer {
	idx := e.post(t, kind)
	e.pool[idx].task = tk
	return Timer{env: e, idx: idx, gen: e.pool[idx].gen}
}

// front discards canceled entries at the head of the queue and reports
// the next live event: its time, and whether it is the heap top (else
// the head of ready). ok is false when no live event remains.
//
// The order is (at, seq) throughout. A heap entry due now was posted
// before the clock reached now, so it precedes everything in ready,
// which was posted at now; ready is FIFO, which is seq order; and every
// other heap entry is due later than all of ready.
func (e *Env) front() (at time.Duration, inHeap, ok bool) {
	for {
		if len(e.events) > 0 && (e.events[0].at == e.now || e.readyHead == len(e.ready)) {
			top := e.events[0]
			if !e.pool[top.idx].canceled {
				return top.at, true, true
			}
			e.heapPop()
			e.dead--
			e.recycle(top.idx)
		} else if e.readyHead < len(e.ready) {
			idx := e.ready[e.readyHead]
			if !e.pool[idx].canceled {
				return e.now, false, true
			}
			e.popReady()
			e.recycle(idx)
		} else {
			return 0, false, false
		}
	}
}

// Step executes the single next event, advancing the clock to its time.
// It reports false when no events remain.
func (e *Env) Step() bool {
	at, inHeap, ok := e.front()
	if ok {
		e.execute(at, inHeap)
	}
	return ok
}

// execute dequeues and runs the live event front reported.
func (e *Env) execute(at time.Duration, inHeap bool) {
	var idx int32
	if inHeap {
		idx = e.heapPop().idx
		e.now = at
		if e.halfDead() {
			e.compact()
		}
	} else {
		idx = e.popReady()
	}
	rec := &e.pool[idx]
	e.stepCount++
	// Copy the payload out and recycle before running it: the handler
	// may schedule new events into the reused slot.
	kind := rec.kind
	fn, tk, hook := rec.fn, rec.task, rec.hook
	e.recycle(idx)
	switch kind {
	case evResume:
		tk.m.Resume()
	case evFunc:
		fn()
	case evHook:
		hook.RunEvent()
	case evSignalTimeout:
		w := &tk.wait
		w.timedOut = true
		if w.s != nil {
			w.s.unlink(w)
		}
		tk.m.Resume()
	case evResTimeout:
		w := &tk.rwait
		w.timedOut = true
		if w.r != nil {
			w.r.waiters.remove(w)
			w.r = nil
		}
		tk.m.Resume()
	}
	if e.stepHook != nil {
		e.stepHook()
	}
}

// Run executes events in order until the event queue is exhausted or the
// next event lies beyond until, then advances the clock to until if it
// is behind it, whether or not events remain. An until behind the clock
// executes nothing and leaves the clock where it is.
func (e *Env) Run(until time.Duration) {
	for {
		at, inHeap, ok := e.front()
		if !ok || at > until {
			break
		}
		e.execute(at, inHeap)
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue is empty. Models with recurring
// generators never drain, so RunAll is mostly useful in tests.
func (e *Env) RunAll() {
	for e.Step() {
	}
}

// Close tears down every live actor in spawn order, whatever its kind,
// so teardown diagnostics are reproducible. A parked actor is unlinked
// from its wait queue, its pending timeout timer is canceled, and an
// actor implementing MachineCloser gets its MachineClose hook (a
// process unwinds through its deferred calls there and its goroutine
// exits). Close must be called from the driving goroutine (never from
// inside an actor). Closing an already closed environment is a no-op;
// after Close the environment must not be used otherwise.
func (e *Env) Close() {
	if e.closed {
		return
	}
	// closed=true disables registry compaction, so indices are stable
	// while we walk, and new actors cannot appear (Spawn panics).
	e.closed = true
	for i := 0; i < len(e.tasks); i++ {
		t := e.tasks[i]
		if t == nil {
			continue
		}
		t.cancelWaits()
		if c, ok := t.m.(MachineCloser); ok {
			c.MachineClose()
		}
		t.m = nil
		t.slot = -1
	}
	e.tasks = e.tasks[:0]
	e.liveTasks = 0
}
