package client

import (
	"sort"
	"time"

	"siteselect/internal/forward"
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

// removePending unregisters pt and recycles it: pointer-bearing reply
// state is dropped, the signal and slice capacities are kept for the
// next transaction.
func (c *Client) removePending(pt *pendingTxn) {
	for i, p := range c.pending {
		if p == pt {
			last := len(c.pending) - 1
			c.pending[i] = c.pending[last]
			c.pending[last] = nil
			c.pending = c.pending[:last]
			break
		}
	}
	clear(pt.confFrom) // drop the retained reply vectors before reuse
	clear(pt.loadFrom)
	*pt = pendingTxn{
		sig:      pt.sig,
		waits:    pt.waits[:0],
		confFrom: pt.confFrom[:0],
		loadFrom: pt.loadFrom[:0],
	}
	c.ptFree = append(c.ptFree, pt)
}

// deferredEntry is a parked recall, keyed by object.
type deferredEntry struct {
	obj lockmgr.ObjectID
	d   deferredRecall
}

// findDeferred returns the index of obj's deferred recall, or -1.
func (c *Client) findDeferred(obj lockmgr.ObjectID) int {
	for i := range c.deferred {
		if c.deferred[i].obj == obj {
			return i
		}
	}
	return -1
}

// setDeferred parks (or replaces) the recall deferred against obj.
func (c *Client) setDeferred(obj lockmgr.ObjectID, d deferredRecall) {
	if i := c.findDeferred(obj); i >= 0 {
		c.deferred[i].d = d
		return
	}
	c.deferred = append(c.deferred, deferredEntry{obj: obj, d: d})
}

// takeDeferred removes and returns obj's deferred recall.
func (c *Client) takeDeferred(obj lockmgr.ObjectID) (deferredRecall, bool) {
	if i := c.findDeferred(obj); i >= 0 {
		d := c.deferred[i].d
		last := len(c.deferred) - 1
		c.deferred[i] = c.deferred[last]
		c.deferred[last] = deferredEntry{}
		c.deferred = c.deferred[:last]
		return d, true
	}
	return deferredRecall{}, false
}

// migrationEntry is one in-progress forward-list migration, keyed by
// object.
type migrationEntry struct {
	obj lockmgr.ObjectID
	l   *forward.List
}

// migrationOf returns obj's forward list, nil if none.
func (c *Client) migrationOf(obj lockmgr.ObjectID) *forward.List {
	for i := range c.migrations {
		if c.migrations[i].obj == obj {
			return c.migrations[i].l
		}
	}
	return nil
}

// setMigration records (or replaces) obj's forward list.
func (c *Client) setMigration(obj lockmgr.ObjectID, l *forward.List) {
	for i := range c.migrations {
		if c.migrations[i].obj == obj {
			c.migrations[i].l = l
			return
		}
	}
	c.migrations = append(c.migrations, migrationEntry{obj: obj, l: l})
}

// deleteMigration drops obj's forward list.
func (c *Client) deleteMigration(obj lockmgr.ObjectID) {
	for i := range c.migrations {
		if c.migrations[i].obj == obj {
			last := len(c.migrations) - 1
			c.migrations[i] = c.migrations[last]
			c.migrations[last] = migrationEntry{}
			c.migrations = c.migrations[:last]
			return
		}
	}
}

// shipWaitEntry is one outstanding shipped-work result wait.
type shipWaitEntry struct {
	key shipKey
	w   *shipWait
}

// shipWaitFor returns the wait registered under key, nil if none.
func (c *Client) shipWaitFor(key shipKey) *shipWait {
	for i := range c.shipWaits {
		if c.shipWaits[i].key == key {
			return c.shipWaits[i].w
		}
	}
	return nil
}

// addShipWait registers a result wait.
func (c *Client) addShipWait(key shipKey, w *shipWait) {
	c.shipWaits = append(c.shipWaits, shipWaitEntry{key: key, w: w})
}

// deleteShipWait unregisters a result wait.
func (c *Client) deleteShipWait(key shipKey) {
	for i := range c.shipWaits {
		if c.shipWaits[i].key == key {
			last := len(c.shipWaits) - 1
			c.shipWaits[i] = c.shipWaits[last]
			c.shipWaits[last] = shipWaitEntry{}
			c.shipWaits = c.shipWaits[:last]
			return
		}
	}
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
