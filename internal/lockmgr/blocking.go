package lockmgr

import (
	"errors"

	"siteselect/internal/sim"
)

// Blocking-table errors.
var (
	// ErrDeadlock is returned when a request is refused by wait-for
	// cycle detection.
	ErrDeadlock = errors.New("lockmgr: deadlock refused")
	// ErrDeadline is returned when a request's deadline passed while it
	// waited.
	ErrDeadline = errors.New("lockmgr: deadline passed while waiting")
)

// BlockingTable adapts a Table for callers that wait for their locks: a
// LockOp parks the calling machine until the lock is granted, the
// request's deadline passes, or the request is refused as a deadlock.
// All lock mutations must go through the wrapper so that waiters are
// woken.
type BlockingTable struct {
	env   *sim.Env
	table Table
	// wakeups is made by the first request that queues, like the
	// table's own maps: every client site owns a BlockingTable.
	wakeups map[*Request]*sim.Signal
}

// NewBlockingTable returns a wrapper around a fresh Table.
func NewBlockingTable(env *sim.Env) *BlockingTable {
	return &BlockingTable{env: env}
}

// Table exposes the underlying table for inspection (Audit, holder
// queries). Mutations must use the wrapper methods.
func (bt *BlockingTable) Table() *Table { return &bt.table }

// Reserve pre-sizes the underlying table's entry index.
func (bt *BlockingTable) Reserve(n int) { bt.table.Reserve(n) }

// LockOp is a resumable lock acquisition embedded in the calling
// sim.Machine. It fails with ErrDeadlock when refused by cycle detection
// and with ErrDeadline when req.Deadline arrives first (the request is
// then canceled, matching the policy that transactions past their
// deadline are not served). Call Start once; done=true resolves the
// request immediately (grant, deadlock refusal, or an already-expired
// deadline). Otherwise the task parked: call Step from every following
// Resume until done.
type LockOp struct {
	bt  *BlockingTable
	req *Request
	sig *sim.Signal
}

// Start issues the request and runs up to the first park.
func (o *LockOp) Start(bt *BlockingTable, t *sim.Task, req *Request) (bool, error) {
	o.bt, o.req = bt, req
	outcome, _ := bt.table.Lock(req)
	switch outcome {
	case Granted:
		return true, nil
	case Deadlock:
		return true, ErrDeadlock
	}
	o.sig = sim.NewSignal(bt.env)
	if bt.wakeups == nil {
		bt.wakeups = make(map[*Request]*sim.Signal)
	}
	bt.wakeups[req] = o.sig
	return o.wait(t)
}

// Step continues after a park.
func (o *LockOp) Step(t *sim.Task) (bool, error) {
	if t.TimedOut() {
		if o.req.GrantedNow() { // granted in the same instant as the timeout
			delete(o.bt.wakeups, o.req)
			return true, nil
		}
		return o.expire()
	}
	return o.wait(t)
}

// wait is the grant-recheck loop: resolve if granted, expire if the
// deadline passed, otherwise park until woken.
func (o *LockOp) wait(t *sim.Task) (bool, error) {
	if o.req.GrantedNow() {
		delete(o.bt.wakeups, o.req)
		return true, nil
	}
	remain := o.req.Deadline - t.Now()
	if remain <= 0 || !t.WaitTimeout(o.sig, remain) {
		return o.expire()
	}
	return false, nil
}

func (o *LockOp) expire() (bool, error) {
	delete(o.bt.wakeups, o.req)
	o.bt.fire(o.bt.table.Cancel(o.req))
	return true, ErrDeadline
}

// SeqLockOp acquires a list of locks one after another, in the order
// they were added — the growing phase of a transaction machine under
// strict two-phase locking. It stops at the first request that fails and
// reports that LockOp's error; releasing what was acquired before it,
// and whatever else the failure means, is the caller's business. Init,
// Add each request, then call Step from every Resume until done.
type SeqLockOp struct {
	bt *BlockingTable
	// reqs is referenced by the table while the locks are queued or
	// held; its array is kept across uses of the op.
	reqs    []Request
	idx     int
	started bool
	op      LockOp
}

// Init arms the op to acquire n locks from bt.
func (o *SeqLockOp) Init(bt *BlockingTable, n int) {
	reqs := o.reqs[:0]
	if cap(reqs) < n {
		reqs = make([]Request, 0, n)
	}
	*o = SeqLockOp{bt: bt, reqs: reqs}
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
			done, err = o.op.Start(o.bt, t, &o.reqs[o.idx])
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

// ReleaseAll drops all of owner's locks and wakes newly granted waiters.
func (bt *BlockingTable) ReleaseAll(owner OwnerID) {
	bt.fire(bt.table.ReleaseAll(owner))
}

func (bt *BlockingTable) fire(grants []*Request) {
	for _, g := range grants {
		if sig, ok := bt.wakeups[g]; ok {
			sig.Broadcast()
		}
	}
}
