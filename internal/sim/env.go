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
// (timer, Signal, Resource, Mailbox) through its embedded Task, returns
// from Resume, and is resumed by a direct method call from the event
// loop, with no goroutine or channel handoff. A typical model creates an
// Env, starts machines with Spawn, and then calls Run.
//
// Proc, the goroutine-process form the kernel started with, is a legacy:
// no model code uses it, and it stays only for a benchmark driver that
// measures its handoff (see docs/KERNEL.md for the removal condition).
// It shares the machines' wait queues and event ordering.
//
// The kernel is built for a steady state that allocates nothing: event
// records are pooled and recycled through a free list, the queue is a
// monomorphic 4-ary heap (see heap.go), and the dominant event shapes
// (task resume, hook delivery, wait timeouts) avoid closures entirely.
// See DESIGN.md "Kernel internals and performance".
package sim

import (
	"fmt"
	"time"
)

// Env is a simulation environment: a virtual clock and an event queue.
// An Env is not safe for concurrent use; it is driven from a single
// goroutine (the one calling Run/Step) and from the processes it resumes,
// which by construction never run at the same time.
type Env struct {
	now    time.Duration
	events []heapEnt  // 4-ary min-heap keyed by (at, seq)
	pool   []eventRec // event payloads, addressed by heapEnt.idx
	free   []int32    // recycled pool indices
	seq    int64

	// genFloor is the starting generation for records appended after a
	// pool trim; it stays ahead of every Timer handle issued for a
	// trimmed index so regrown records can never alias a stale handle.
	genFloor uint32

	// procs is the live-process registry in spawn order (nil holes mark
	// exited processes); Close walks it in order so teardown
	// diagnostics are reproducible. freeProcs parks goroutines of
	// finished processes for reuse by the next Go.
	procs     []*Proc
	live      int
	freeProcs []*Proc
	closed    bool

	// tasks is the live state-machine registry in spawn order (nil
	// holes mark detached machines), the machine counterpart of procs.
	tasks     []*Task
	liveTasks int

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

// Procs returns the number of live (spawned and not yet finished)
// processes.
func (e *Env) Procs() int { return e.live }

// Machines returns the number of live (spawned or adopted and not yet
// detached) state machines.
func (e *Env) Machines() int { return e.liveTasks }

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
// fires. The zero Timer is valid and permanently Stopped.
type Timer struct {
	env *Env
	idx int32
	gen uint32
}

// Cancel prevents the timer's event from firing. Canceling an already
// fired or already canceled timer is a no-op. (The index bound check
// covers handles whose record was trimmed by the pool-shrink pass.)
func (t Timer) Cancel() {
	if t.env == nil || int(t.idx) >= len(t.env.pool) {
		return
	}
	rec := &t.env.pool[t.idx]
	if rec.gen == t.gen {
		rec.canceled = true
	}
}

// Stopped reports whether the timer was canceled or has fired.
func (t Timer) Stopped() bool {
	if t.env == nil || int(t.idx) >= len(t.env.pool) {
		return true
	}
	rec := &t.env.pool[t.idx]
	return rec.gen != t.gen || rec.canceled
}

// post allocates a pooled event of the given kind at absolute time t
// and pushes it on the queue. The caller fills in the payload via the
// returned index. Scheduling in the past is a model error and panics.
func (e *Env) post(t time.Duration, kind eventKind) int32 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	idx := e.allocEvent()
	e.pool[idx].kind = kind
	e.heapPush(heapEnt{at: t, seq: e.seq, idx: idx})
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

// Step executes the single next event, advancing the clock to its time.
// It reports false when no events remain.
func (e *Env) Step() bool {
	for len(e.events) > 0 {
		ent := e.heapPop()
		rec := &e.pool[ent.idx]
		if rec.canceled {
			e.recycle(ent.idx)
			continue
		}
		e.now = ent.at
		e.stepCount++
		// Copy the payload out and recycle before running it: the
		// handler may schedule new events into the reused slot.
		kind := rec.kind
		fn, tk, hook := rec.fn, rec.task, rec.hook
		e.recycle(ent.idx)
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
		return true
	}
	return false
}

// Run executes events in order until the event queue is exhausted or the
// next event lies beyond until. The clock is left at until (or at the last
// executed event if the queue drained earlier than until and no later
// events exist).
func (e *Env) Run(until time.Duration) {
	for len(e.events) > 0 {
		next := e.events[0]
		if e.pool[next.idx].canceled {
			e.heapPop()
			e.recycle(next.idx)
			continue
		}
		if next.at > until {
			break
		}
		e.Step()
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

// Close terminates every live process and then every live state
// machine, each in spawn order, so teardown diagnostics are
// reproducible. Each blocked process is resumed with a stop notice,
// unwinds via panic(errStopped) recovered by the kernel, and its
// goroutine exits; parked (reusable) goroutines are reaped too. Parked
// machines are unlinked from their wait queues, pending timeout timers
// are canceled, and machines implementing MachineCloser get their
// MachineClose hook. Close must be called from the driving goroutine
// (never from inside a process or machine). Closing an already closed
// environment is a no-op; after Close the environment must not be used
// otherwise.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// closed=true disables registry compaction, so indices are stable
	// while we walk, and new procs cannot appear (Go panics).
	for i := 0; i < len(e.procs); i++ {
		p := e.procs[i]
		if p == nil {
			continue
		}
		p.stopping = true
		p.stop = true
		p.h <- struct{}{}
		<-p.h
	}
	e.procs = e.procs[:0]
	e.live = 0
	for _, p := range e.freeProcs {
		p.stop = true
		p.h <- struct{}{}
		<-p.h
	}
	e.freeProcs = e.freeProcs[:0]
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

// register adds p to the spawn-order registry.
func (e *Env) register(p *Proc) {
	p.slot = len(e.procs)
	e.procs = append(e.procs, p)
	e.live++
}

// unregister removes p, leaving a nil hole to preserve spawn order, and
// compacts the registry when it is mostly holes. It runs on the
// process's goroutine while the kernel is blocked in dispatch (or
// Close), so access is race-free by construction.
func (e *Env) unregister(p *Proc) {
	e.procs[p.slot] = nil
	p.slot = -1
	e.live--
	if !e.closed && len(e.procs) >= 64 && e.live*2 < len(e.procs) {
		w := 0
		for _, q := range e.procs {
			if q != nil {
				q.slot = w
				e.procs[w] = q
				w++
			}
		}
		clear(e.procs[w:])
		e.procs = e.procs[:w]
	}
}
