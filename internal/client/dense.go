package client

import (
	"sort"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/trace"
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
// Ordering discipline: the waiter index is insertion-ordered and
// scanned front to back, so grant broadcast order is exactly the
// registration order the map-based implementation produced; everything
// else is keyed lookup only, where removal order is unobservable.

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

// addWait registers an outstanding request for obj.
func (pt *pendingTxn) addWait(obj lockmgr.ObjectID, mode lockmgr.Mode, sent time.Duration) {
	pt.waits = append(pt.waits, objWait{obj: obj, mode: mode, sent: sent})
}

// waiterEntry is one (object, transaction) registration in the
// client-wide waiter index.
type waiterEntry struct {
	obj lockmgr.ObjectID
	pt  *pendingTxn
}

// addWaiter appends a registration; arrival grants for obj wake pts in
// exactly this order.
func (c *Client) addWaiter(obj lockmgr.ObjectID, pt *pendingTxn) {
	c.waiters = append(c.waiters, waiterEntry{obj: obj, pt: pt})
}

// removeWaiterAt removes the registration at index i, preserving the
// order of the rest (registration order is the broadcast order).
func (c *Client) removeWaiterAt(i int) {
	copy(c.waiters[i:], c.waiters[i+1:])
	c.waiters[len(c.waiters)-1] = waiterEntry{}
	c.waiters = c.waiters[:len(c.waiters)-1]
}

// dropWaiter removes pt's registration for obj, if present.
func (c *Client) dropWaiter(obj lockmgr.ObjectID, pt *pendingTxn) {
	for i := range c.waiters {
		if c.waiters[i].obj == obj && c.waiters[i].pt == pt {
			c.removeWaiterAt(i)
			return
		}
	}
}

// hasWaiter reports whether any transaction is waiting for obj.
func (c *Client) hasWaiter(obj lockmgr.ObjectID) bool {
	for i := range c.waiters {
		if c.waiters[i].obj == obj {
			return true
		}
	}
	return false
}

// wakeWaiters hands obj, now cached here in mode, to every waiting
// transaction that mode satisfies, in registration order, and reports
// how many there were; transit is the wire time of the message that
// brought the object, added to each one's network attribution.
// Broadcast only schedules the wakeups (sim.Signal defers them to the
// event queue), so scanning the index in place with shift removal
// visits exactly the registration order — no registration can appear or
// vanish mid-scan.
func (c *Client) wakeWaiters(obj lockmgr.ObjectID, mode lockmgr.Mode, transit time.Duration) int {
	now := c.env.Now()
	satisfied := 0
	for i := 0; i < len(c.waiters); {
		if c.waiters[i].obj != obj {
			i++
			continue
		}
		pt := c.waiters[i].pt
		j := pt.findWait(obj)
		if j < 0 || !modeSufficient(mode, pt.waits[j].mode) {
			i++
			continue
		}
		need, sent := pt.waits[j].mode, pt.waits[j].sent
		pt.removeWait(j)
		c.removeWaiterAt(i) // the next entry shifts into i
		if c.measuring() {
			c.m.RecordResponse(need, now-sent)
		}
		pt.netAccum += transit
		c.tr.Point(pt.t.ID, c.id, trace.EvLockGranted, obj, 0, 0, now)
		satisfied++
		pt.sig.Broadcast()
	}
	return satisfied
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

// store is the scan-addressed key→value store behind the client's
// keyed lookups that hold a handful of entries at most — recalls
// deferred against pinned objects, forward lists of migrating objects,
// waits for shipped work. They are only ever probed by key, so removal
// swaps the last entry in: its order is unobservable.
type store[K comparable, V any] []storeEntry[K, V]

type storeEntry[K comparable, V any] struct {
	key K
	val V
}

// find returns the value stored under key.
func (s store[K, V]) find(key K) (V, bool) {
	for i := range s {
		if s[i].key == key {
			return s[i].val, true
		}
	}
	var zero V
	return zero, false
}

// put stores val under key, replacing what was there.
func (s *store[K, V]) put(key K, val V) {
	for i := range *s {
		if (*s)[i].key == key {
			(*s)[i].val = val
			return
		}
	}
	*s = append(*s, storeEntry[K, V]{key, val})
}

// take removes and returns the value stored under key.
func (s *store[K, V]) take(key K) (V, bool) {
	old := *s
	for i := range old {
		if old[i].key == key {
			val, last := old[i].val, len(old)-1
			old[i] = old[last]
			old[last] = storeEntry[K, V]{}
			*s = old[:last]
			return val, true
		}
	}
	var zero V
	return zero, false
}

// epochEntry is one release-epoch counter, sorted by (obj, site).
// Epoch state is the one per-client store that grows with the set of
// objects ever returned rather than with in-flight work, so it gets a
// binary-searchable sorted slice instead of a scan: lookups (every
// grant) are O(log n) over 16-byte-aligned entries, inserts (first
// release of an object — rare) shift the tail.
type epochEntry struct {
	obj  lockmgr.ObjectID
	site netsim.SiteID
	n    int64
}

// epochIdx locates the counter for (obj, site): its index and whether
// it exists; absent counters read as zero and insert at the returned
// index.
func (c *Client) epochIdx(obj lockmgr.ObjectID, site netsim.SiteID) (int, bool) {
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
