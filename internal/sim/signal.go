package sim

import "time"

// Signal is a condition-variable-like primitive. Processes wait on it;
// Broadcast wakes every current waiter and Fire wakes the longest-waiting
// one. Wakeups are scheduled at the current instant, so woken processes
// run after the waking event completes, in wait order.
//
// As with condition variables, a wakeup is a hint: callers should re-check
// their predicate in a loop (or use WaitFor).
//
// The waiter queue is an intrusive doubly-linked list of per-task
// wait records (Task.wait), so enqueueing is allocation free and
// removal — on wake or timeout — is O(1). Processes and state machines
// share the queue: a wakeup resumes either kind through its task.
type Signal struct {
	env        *Env
	head, tail *signalWait
}

// signalWait is a task's intrusive signal-queue node. Every Task
// embeds exactly one: a blocked task waits on at most one signal.
type signalWait struct {
	t          *Task
	prev, next *signalWait
	s          *Signal // owning signal while queued, nil otherwise
	timer      Timer
	timedOut   bool // beside hasTimer: the two flags share one word
	hasTimer   bool
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Init makes s a signal bound to env, in place (in the record it wakes).
func (s *Signal) Init(env *Env) { *s = Signal{env: env} }

// Wait blocks the process until the signal is fired or broadcast.
func (p *Proc) Wait(s *Signal) {
	w := &p.task.wait
	w.timedOut = false
	w.hasTimer = false
	s.push(w)
	p.block()
}

// WaitTimeout blocks until the signal wakes the process or d elapses. It
// reports true when woken by the signal and false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	w := &p.task.wait
	w.timedOut = false
	w.timer = s.env.scheduleTimeout(s.env.now+d, evSignalTimeout, &p.task)
	w.hasTimer = true
	s.push(w)
	p.block()
	return !w.timedOut
}

// WaitForTimeout blocks until cond() is true or the deadline at absolute
// virtual time t passes. It reports true when the condition held.
func (p *Proc) WaitForTimeout(s *Signal, t time.Duration, cond func() bool) bool {
	for !cond() {
		if p.Now() >= t {
			return false
		}
		if !p.WaitTimeout(s, t-p.Now()) && !cond() {
			return false
		}
	}
	return true
}

// Fire wakes the longest-waiting process, if any.
func (s *Signal) Fire() {
	w := s.head
	if w == nil {
		return
	}
	s.unlink(w)
	s.wake(w)
}

// Broadcast wakes every process currently waiting.
func (s *Signal) Broadcast() {
	for w := s.head; w != nil; {
		next := w.next
		w.prev, w.next, w.s = nil, nil, nil
		s.wake(w)
		w = next
	}
	s.head, s.tail = nil, nil
}

func (s *Signal) wake(w *signalWait) {
	if w.hasTimer {
		w.timer.Cancel()
		w.hasTimer = false
	}
	s.env.scheduleResume(s.env.now, w.t)
}

func (s *Signal) push(w *signalWait) {
	w.s = s
	w.prev = s.tail
	w.next = nil
	if s.tail != nil {
		s.tail.next = w
	} else {
		s.head = w
	}
	s.tail = w
}

func (s *Signal) unlink(w *signalWait) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		s.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		s.tail = w.prev
	}
	w.prev, w.next, w.s = nil, nil, nil
}
