package client

import (
	"sort"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
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
// the object, the requested mode, and when the (latest) firm request
// for it was sent — the response-time clock.
type objWait struct {
	obj  lockmgr.ObjectID
	mode lockmgr.Mode
	sent time.Duration
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

// epochEntry is one release-epoch counter, sorted by (obj, site).
// Epoch state is the one per-client store that grows with the set of
// objects ever returned rather than with in-flight work, so it gets a
// binary-searchable sorted slice instead of a scan: lookups (every
// grant) are O(log n) over 16-byte entries, inserts (first release of
// an object — rare) shift the tail. The object and the site fit 32 bits
// (config.Validate caps DBSize at 2^31-1; a site is a client id or a
// shard's).
type epochEntry struct {
	obj  int32
	site int32
	n    int64
}

// epochIdx locates the counter for (obj, site): its index and whether
// it exists; absent counters read as zero and insert at the returned
// index.
func (c *Client) epochIdx(object lockmgr.ObjectID, at netsim.SiteID) (int, bool) {
	obj, site := int32(object), int32(at)
	i := sort.Search(len(c.epochs), func(i int) bool {
		e := &c.epochs[i]
		if e.obj != obj {
			return e.obj > obj
		}
		return e.site >= site
	})
	if i < len(c.epochs) && c.epochs[i].obj == obj && c.epochs[i].site == site {
		return i, true
	}
	return i, false
}
