package sim

// Signal is a condition-variable-like primitive. Machines wait on it
// (Task.Wait, Task.WaitTimeout); Broadcast wakes every current waiter.
// Wakeups are scheduled at the current instant, so woken machines run
// after the waking event completes, in wait order. (A queue that wakes
// one reader per batch of items is a Mailbox, whose reader is an event
// hook, not a waiter.)
//
// As with condition variables, a wakeup is a hint: callers should
// re-check their predicate.
//
// The waiter queue is an intrusive doubly-linked list of per-task
// wait records (Task.wait), so enqueueing is allocation free and
// removal — on wake or timeout — is O(1). A wakeup resumes the waiter
// through its task.
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

// Broadcast wakes every machine currently waiting.
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
