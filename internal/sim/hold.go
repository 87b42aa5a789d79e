package sim

import "time"

// The two resumable ops a model machine parks through when it uses a
// device or waits for a condition with a deadline. Each is embedded in
// the calling machine (one byte of state) and stepped from every Resume
// with the same arguments until it reports done; it is idle again by
// then, so it needs no Init and may be stepped for the next use at once.
// Model code calls Task.Acquire, Task.WaitTimeout and Task.TimedOut only
// through them (make park-lint).

// HoldOp is one service at a device: take a unit of the resource, hold
// it for the service time, give it back.
type HoldOp struct{ pc uint8 }

const (
	holdIdle uint8 = iota
	holdQueued
	holdBusy
)

// Step advances the service of d at r, queued at priority prio (lower
// first, ties FIFO); done=false means the task parked. A d <= 0 is free:
// no unit is taken and the task does not park. A positive deadline
// bounds the wait for the unit (not the service): when it passes first
// the op reports ok=false, holding nothing. Without one the wait is
// unbounded and ok is always true.
func (o *HoldOp) Step(t *Task, r *Resource, prio float64, d, deadline time.Duration) (done, ok bool) {
	switch o.pc {
	case holdIdle:
		if d <= 0 {
			return true, true
		}
		if deadline > 0 {
			switch t.AcquireTimeout(r, prio, deadline-t.Now()) {
			case AcquireTimedOut:
				return true, false
			case AcquireParked:
				o.pc = holdQueued
				return false, false
			}
		} else if !t.Acquire(r, prio) {
			o.pc = holdQueued
			return false, false
		}
	case holdQueued:
		if t.ResTimedOut() {
			o.pc = holdIdle
			return true, false
		}
	default: // holdBusy
		r.Release()
		o.pc = holdIdle
		return true, true
	}
	o.pc = holdBusy
	t.Sleep(d)
	return false, false
}

// WaitOp is a bounded wait: park on a signal until a condition the
// caller evaluates holds or an absolute deadline passes.
type WaitOp struct{ waited bool }

// Step advances the wait on s for cond until deadline; done=false means
// the task parked. It looks at the condition first, so one that came
// true in the instant the deadline passed is met (ok=true); then at this
// wait's own timeout, then at the clock.
func (o *WaitOp) Step(t *Task, s *Signal, deadline time.Duration, cond bool) (done, ok bool) {
	waited := o.waited
	o.waited = false
	if cond {
		return true, true
	}
	if waited && t.TimedOut() || t.Now() >= deadline {
		return true, false
	}
	o.waited = true
	t.WaitTimeout(s, deadline-t.Now())
	return false, false
}
