package sim

import (
	"slices"
	"time"
)

// Machine is an event-driven simulation actor. It is resumed by a
// direct Resume call from the event loop — no goroutine, no stack, no
// channel handoff — and parks by arming exactly one wait through its
// embedded Task and returning from Resume.
//
// The contract around every park point:
//
//   - Resume runs model code until the machine either finishes
//     (Detach) or parks on exactly one primitive: a timer
//     (Task.Sleep/SleepUntil), a signal (Task.Wait/WaitTimeout,
//     Mailbox.Recv), or a resource (Task.Acquire/AcquireTimeout).
//   - After arming a park, Resume must return without touching model
//     state; the kernel calls Resume again when the wait completes.
//   - A machine must never arm two waits from one Resume, and must not
//     call Resume on itself.
//
// A machine that uses a device (take a unit, hold it for a service time,
// give it back) does so through an embedded HoldOp, and one that waits
// for a condition until a deadline through a WaitOp: those two are the
// only users of Acquire, WaitTimeout and TimedOut outside this package.
//
// Proc, the legacy goroutine process, is itself a Machine whose Resume
// is a channel handoff.
type Machine interface {
	Resume()
}

// MachineCloser is implemented by machines that need cleanup when the
// environment is closed mid-run. Env.Close calls MachineClose on live
// machines in spawn order, after unlinking the machine from any wait
// queue.
type MachineCloser interface {
	MachineClose()
}

// Task is the kernel-side identity of a resumable actor. Every Machine
// implementation embeds one and passes it to Env.Spawn. It carries the
// intrusive wait records of the signal and resource queues, so parking
// is allocation free.
//
// All Task methods must be called from inside the owning machine's
// Resume (or, for the park-free accessors, from the model's
// single-threaded driving context).
type Task struct {
	env *Env
	m   Machine

	// slot is the task's index in the env's registry, or -1 while
	// detached.
	slot int

	// wait and rwait are the intrusive wait-queue nodes; a parked task
	// sits in at most one queue.
	wait  signalWait
	rwait resWait
}

// Spawn registers m in the registry and schedules its first Resume at
// the current virtual time, after events already queued for this
// instant.
func (e *Env) Spawn(t *Task, m Machine) {
	e.adopt(t, m)
	e.scheduleResume(e.now, t)
}

// Grow reserves room for n more machines and one pending event apiece:
// an owner about to spawn a population whose size it knows says so
// once, and the registry, the event pool, its free list, the heap and
// the ready FIFO (where the spawns' first resumes wait) are sized once
// instead of by repeated append growth. It reserves capacity
// only — no event is queued and no sequence number taken — so a run
// executes the same (at, seq) sequence with or without the call.
func (e *Env) Grow(n int) {
	e.tasks = slices.Grow(e.tasks, n)
	e.pool = slices.Grow(e.pool, n)
	e.free = slices.Grow(e.free, n)
	e.events = slices.Grow(e.events, n)
	e.ready = slices.Grow(e.ready, n)
}

// adopt registers m without scheduling a resume: the machine starts
// parked and runs only when something wakes it.
func (e *Env) adopt(t *Task, m Machine) {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	if t.m != nil {
		panic("sim: task already attached")
	}
	t.env = e
	t.m = m
	t.wait.t = t
	t.rwait.t = t
	t.slot = len(e.tasks)
	e.tasks = append(e.tasks, t)
	e.liveTasks++
}

// Detach removes the machine from the registry; call it when the
// machine's work is done. The task must not be parked. A detached
// Task may be reused by a later Spawn.
func (t *Task) Detach() {
	e := t.env
	if t.slot < 0 || t.slot >= len(e.tasks) || e.tasks[t.slot] != t {
		panic("sim: Detach of unattached task")
	}
	e.tasks[t.slot] = nil
	t.slot = -1
	t.m = nil
	e.liveTasks--
	if !e.closed && len(e.tasks) >= 64 && e.liveTasks*2 < len(e.tasks) {
		w := 0
		for _, q := range e.tasks {
			if q != nil {
				q.slot = w
				e.tasks[w] = q
				w++
			}
		}
		clear(e.tasks[w:])
		e.tasks = e.tasks[:w]
	}
}

// cancelWaits unlinks the task from any wait queue and cancels any
// pending timeout timer; Close uses it to tear down parked machines.
func (t *Task) cancelWaits() {
	if w := &t.wait; w.s != nil {
		w.s.unlink(w)
	}
	if t.wait.hasTimer {
		t.wait.timer.Cancel()
		t.wait.hasTimer = false
	}
	if w := &t.rwait; w.r != nil {
		w.r.waiters.remove(w)
		w.r = nil
	}
	if t.rwait.hasTimer {
		t.rwait.timer.Cancel()
		t.rwait.hasTimer = false
	}
}

// Env returns the task's environment.
func (t *Task) Env() *Env { return t.env }

// Now returns the current virtual time.
func (t *Task) Now() time.Duration { return t.env.now }

// Sleep parks the machine for d of virtual time: a non-positive d
// resumes at the current instant, after events already scheduled for
// it. The caller must return from Resume.
func (t *Task) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.env.scheduleResume(t.env.now+d, t)
}

// SleepUntil parks the machine until absolute virtual time at (or the
// current instant if at is in the past).
func (t *Task) SleepUntil(at time.Duration) {
	if at < t.env.now {
		at = t.env.now
	}
	t.env.scheduleResume(at, t)
}

// Wait parks the machine on s until it is fired or broadcast. The
// caller must return from Resume; a wakeup is a hint and the predicate
// must be re-checked.
func (t *Task) Wait(s *Signal) {
	w := &t.wait
	w.timedOut = false
	w.hasTimer = false
	s.push(w)
}

// WaitTimeout parks the machine on s with a timeout: it reports true
// when the machine parked (return from Resume and check TimedOut on the
// next one) and false when d <= 0, which is an immediate timeout with
// no park.
func (t *Task) WaitTimeout(s *Signal, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	w := &t.wait
	w.timedOut = false
	w.timer = s.env.scheduleTimeout(s.env.now+d, evSignalTimeout, t)
	w.hasTimer = true
	s.push(w)
	return true
}

// TimedOut reports whether the machine's last WaitTimeout park ended by
// timeout rather than a signal wakeup. Valid on the Resume following
// the park.
func (t *Task) TimedOut() bool { return t.wait.timedOut }

// Acquire obtains a unit of r or parks the machine in its priority
// queue (lower priority values first, ties FIFO). It reports true when
// the unit was granted synchronously; false means the machine parked
// and holds the unit on the next Resume.
func (t *Task) Acquire(r *Resource, priority float64) bool {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.grant()
		return true
	}
	w := &t.rwait
	w.priority = priority
	w.timedOut = false
	w.hasTimer = false
	w.r = r
	r.push(w)
	return false
}

// AcquireStatus is the outcome of Task.AcquireTimeout.
type AcquireStatus int8

const (
	// AcquireGranted: the unit is held; continue without parking.
	AcquireGranted AcquireStatus = iota
	// AcquireParked: the machine parked in the wait queue; on the next
	// Resume it holds the unit unless ResTimedOut reports true.
	AcquireParked
	// AcquireTimedOut: d was non-positive; no unit is held and the
	// machine did not park.
	AcquireTimedOut
)

// AcquireTimeout is Acquire with a timeout: a synchronous grant, an
// immediate timeout when d <= 0, or a park whose outcome ResTimedOut
// reports on the next Resume.
func (t *Task) AcquireTimeout(r *Resource, priority float64, d time.Duration) AcquireStatus {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.grant()
		return AcquireGranted
	}
	if d <= 0 {
		return AcquireTimedOut
	}
	w := &t.rwait
	w.priority = priority
	w.timedOut = false
	w.timer = r.env.scheduleTimeout(r.env.now+d, evResTimeout, t)
	w.hasTimer = true
	w.r = r
	r.push(w)
	return AcquireParked
}

// ResTimedOut reports whether the machine's last AcquireTimeout park
// expired before a unit was granted (in which case no unit is held).
// Valid on the Resume following the park.
func (t *Task) ResTimedOut() bool { return t.rwait.timedOut }
