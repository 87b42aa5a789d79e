package client

import (
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/txn"
)

// Dense, index-addressed replacements for the client's per-transaction
// bookkeeping maps. A client has at most a handful of transactions in
// flight (bounded by its executor slots plus queries), each waiting on
// a few objects, so every lookup below is a short linear scan over a
// compact slice — faster than hashing at these sizes, resident in one
// or two cache lines, and free of per-transaction map garbage. All
// stores are recycled: steady-state request rounds allocate nothing.
//
// Ordering discipline: everything here is keyed lookup only, where
// removal order is unobservable. (The one ordered list, an object's
// waiters, lives in its record: object.go.)

// objWait is one outstanding object request of a pending transaction:
// the object, the requested mode, when the (latest) firm request for it
// was sent — the response-time clock — and its request number
// (docs/PROTOCOL.md §4).
type objWait struct {
	obj  lockmgr.ObjectID
	mode lockmgr.Mode
	sent time.Duration
	num  int64
}

// findWait returns the index of obj in the outstanding set, or -1.
func (pt *pendingTxn) findWait(obj lockmgr.ObjectID) int {
	for i := range pt.waits {
		if pt.waits[i].obj == obj {
			return i
		}
	}
	return -1
}

// removeWait drops the wait at index i (order among the remaining
// waits is not observable — they are only ever probed by key).
func (pt *pendingTxn) removeWait(i int) {
	last := len(pt.waits) - 1
	pt.waits[i] = pt.waits[last]
	pt.waits = pt.waits[:last]
}

// findPending returns the pending transaction with the given id, nil
// if none.
func (c *Client) findPending(id txn.ID) *pendingTxn {
	for _, pt := range c.pending {
		if pt.t.ID == id {
			return pt
		}
	}
	return nil
}
