package lockmgr

import (
	"errors"

	"siteselect/internal/sim"
)

// Errors of a lock acquisition that waits.
var (
	// ErrDeadlock is returned when a request is refused by wait-for
	// cycle detection.
	ErrDeadlock = errors.New("lockmgr: deadlock refused")
	// ErrDeadline is returned when a request's deadline passed while it
	// waited.
	ErrDeadline = errors.New("lockmgr: deadline passed while waiting")
)

// LockOp is a resumable lock acquisition embedded in the calling
// sim.Machine: it parks the machine until the lock is granted, the
// request's deadline passes, or the request is refused as a deadlock. It
// fails with ErrDeadlock when refused by cycle detection and with
// ErrDeadline when req.Deadline arrives first (the request is then
// canceled, matching the policy that transactions past their deadline
// are not served). Call Start once; done=true resolves the request
// immediately (grant, deadlock refusal, or an already-expired deadline).
// Otherwise the task parked on the request's waker (the op's own
// signal: an op in use must not move), which the table broadcasts
// whichever call admits the request: call Step from every following
// Resume until done.
type LockOp struct {
	tb   *Table
	req  *Request
	wake sim.Signal
}

// Start issues the request and runs up to the first park.
func (o *LockOp) Start(tb *Table, t *sim.Task, req *Request) (bool, error) {
	o.tb, o.req = tb, req
	outcome, _ := tb.Lock(req)
	switch outcome {
	case Granted:
		return true, nil
	case Deadlock:
		return true, ErrDeadlock
	}
	o.wake.Init(t.Env())
	req.wake = &o.wake
	return o.wait(t)
}

// Step continues after a park. A request granted in the same instant as
// its timeout is granted.
func (o *LockOp) Step(t *sim.Task) (bool, error) {
	if t.TimedOut() && !o.req.GrantedNow() {
		return o.expire()
	}
	return o.wait(t)
}

// wait is the grant-recheck loop: resolve if granted, expire if the
// deadline passed, otherwise park until woken.
func (o *LockOp) wait(t *sim.Task) (bool, error) {
	if o.req.GrantedNow() {
		return true, nil
	}
	remain := o.req.Deadline - t.Now()
	if remain <= 0 || !t.WaitTimeout(o.req.wake, remain) {
		return o.expire()
	}
	return false, nil
}

func (o *LockOp) expire() (bool, error) {
	o.tb.Cancel(o.req)
	return true, ErrDeadline
}

// SeqLockOp acquires a list of locks one after another, in the order
// they were added — the growing phase of a transaction machine under
// strict two-phase locking. It stops at the first request that fails and
// reports that LockOp's error; releasing what was acquired before it,
// and whatever else the failure means, is the caller's business. Init,
// Add each request, then call Step from every Resume until done.
type SeqLockOp struct {
	tb *Table
	// reqs is referenced by the table while the locks are queued or
	// held; its array is kept across uses of the op.
	reqs    []Request
	idx     int
	started bool
	op      LockOp
}

// Init arms the op to acquire n locks from tb.
func (o *SeqLockOp) Init(tb *Table, n int) {
	reqs := o.reqs[:0]
	if cap(reqs) < n {
		reqs = make([]Request, 0, n)
	}
	*o = SeqLockOp{tb: tb, reqs: reqs}
}

// Add appends one request to the sequence. All of them must be added
// before the first Step.
func (o *SeqLockOp) Add(req Request) { o.reqs = append(o.reqs, req) }

// Step advances the acquisition; false means the task parked on the
// current request and Step must run again on the next resume.
func (o *SeqLockOp) Step(t *sim.Task) (bool, error) {
	for o.idx < len(o.reqs) {
		var done bool
		var err error
		if !o.started {
			o.started = true
			done, err = o.op.Start(o.tb, t, &o.reqs[o.idx])
		} else {
			done, err = o.op.Step(t)
		}
		if !done {
			return false, nil
		}
		o.started = false
		if err != nil {
			return true, err
		}
		o.idx++
	}
	return true, nil
}
