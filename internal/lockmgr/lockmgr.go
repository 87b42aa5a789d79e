// Package lockmgr implements the paper's locking machinery: Shared (SL)
// and Exclusive (EL) locks under a strict two-phase discipline, wait
// queues ordered by transaction deadline, lock upgrades and the EL→SL
// downgrade used by the modified callback scheme, and wait-for-graph
// deadlock detection (a request that would close a cycle is refused, per
// Section 5.1).
//
// The same Table type serves three roles in the reproduction: the
// centralized server's transaction lock table, the client-server global
// (per-client) lock table, and each client's local lock table.
package lockmgr

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"siteselect/internal/sim"
	"siteselect/internal/slab"
)

// ObjectID identifies a database object (page).
type ObjectID int

// OwnerID identifies a lock owner: a transaction in the centralized
// system, a client site in the global table.
type OwnerID int64

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// ModeShared (SL) permits concurrent readers.
	ModeShared Mode = iota + 1
	// ModeExclusive (EL) is required to update an object.
	ModeExclusive
)

// String returns "SL" or "EL".
func (m Mode) String() string {
	switch m {
	case ModeShared:
		return "SL"
	case ModeExclusive:
		return "EL"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Compatible reports whether two modes may be held simultaneously by
// different owners.
func Compatible(a, b Mode) bool { return a == ModeShared && b == ModeShared }

// Outcome is the result of a lock request.
type Outcome int

// Lock outcomes.
const (
	// Granted means the lock is held on return.
	Granted Outcome = iota + 1
	// Queued means the request waits; the conflicting holders were
	// returned so the caller can issue callbacks or evaluate H2.
	Queued
	// Deadlock means enqueueing the request would have closed a cycle
	// in the wait-for graph; the request was refused.
	Deadlock
)

// Request is one lock request. Deadline orders the wait queue (earlier
// deadlines are served first, matching the paper's deadline-prioritized
// object request scheduling).
type Request struct {
	Obj      ObjectID
	Owner    OwnerID
	Mode     Mode
	Deadline time.Duration

	// Tag carries caller context through to the grant notification: the
	// id of the waiting transaction, zero when there is none. An integer,
	// not an interface, so that tagging a request boxes nothing.
	Tag int64

	// wake, set by a LockOp that parked on the request, is broadcast when
	// the table admits it from the queue.
	wake *sim.Signal

	seq     int64
	granted bool
	waiting bool
}

// GrantedNow reports whether the request has been granted.
func (r *Request) GrantedNow() bool { return r.granted }

// Table is a lock table with deadline-ordered waiting and deadlock
// refusal. Object ids are page numbers — dense and non-negative — so
// entries live in a dense slice indexed by object when the caller
// Reserved the id space (the server's table, which locks the whole
// database), or a sparse map otherwise (per-client tables, which only
// ever lock the few objects the client caches — a dense index sized by
// the database would dwarf the client itself at large populations).
// Entries, owner records and the arrays that outgrow them come from a
// Slab and go back to it when spent, either way.
//
// The two maps (sparse, owners) are made by the first write to each:
// every client site owns a table, and at population scale most never
// lock anything. Reads of a nil map are reads of an empty one, so only
// the writes check.
type Table struct {
	dense   bool
	entries []*entry            // dense: indexed by ObjectID; nil when no locks or waiters
	sparse  map[ObjectID]*entry // sparse: present only while locked or waited on
	seq     int64

	// owners holds one record per owner that holds or waits for a lock.
	// Owners are transient transaction ids at the centralized server and
	// in every client's local table; the records recycle through slab,
	// the system's or a private one made on first use.
	owners map[OwnerID]*ownerRec
	slab   *Slab

	// confBuf is the shared conflict-scan buffer: conflict queries
	// return slices of it, valid only until the next table call.
	confBuf []OwnerID
	// grantBuf is the shared grant list: Release, Downgrade, ReleaseAll
	// and Cancel return slices of it, which the caller must consume
	// before the next of those four calls.
	grantBuf []*Request
	// ddGen numbers the deadlock searches: a search stamps the owner
	// records it visits instead of collecting them in a per-call set.
	ddGen int64

	// DeadlocksRefused counts requests refused by cycle detection.
	DeadlocksRefused int64

	// hook observes lock-table transitions (tracing); zero-valued when
	// tracing is off, costing one nil check per transition.
	hook Hook
}

// ownerRec is everything the table keeps about one owner. It exists
// while the owner holds or waits for a lock and is retired the moment it
// does neither (settle). Lock sets are tiny, so slices beat sets.
type ownerRec struct {
	// held lists the objects the owner holds, so ReleaseAll is
	// proportional to the owner's locks instead of the whole table.
	held []ObjectID
	// waiting lists the requests the owner has queued, so rebuilding its
	// wait-for edges visits those and never a queue.
	waiting []*Request
	// edges is the set of owners this one waits for, in ascending order
	// (the order a deadlock search visits them in). An edge can outlive
	// its target's record: the set is rebuilt only when one of the
	// owner's own requests leaves a queue.
	edges []OwnerID
	// ddGen is the last deadlock search that visited the owner.
	ddGen int64
	// first is where a new record's held list starts, as an entry's
	// holders start in the entry: a transaction's few locks cost one
	// object, not a record and three regrowths of its list.
	first [4]ObjectID
}

// Slab is the stock of records the lock tables of one system draw on
// (Table.Init): entries, owner records, and the power-of-two blocks that
// holder sets, wait queues and an owner's lists live in.
type Slab struct {
	entries slab.Slab[entry]
	owners  slab.Slab[ownerRec]
	holders slab.Slab[holderEntry]
	queues  slab.Slab[*Request]
	objs    slab.Slab[ObjectID]
	edges   slab.Slab[OwnerID]
}

// owner returns owner's record, taking one from the slab on first use.
func (t *Table) owner(owner OwnerID) *ownerRec {
	if r := t.owners[owner]; r != nil {
		return r
	}
	r := t.slab.owners.New() // entryFor came first: the slab is there
	r.held = r.first[:0]
	if t.owners == nil {
		t.owners = make(map[OwnerID]*ownerRec)
	}
	t.owners[owner] = r
	return r
}

// settle retires owner's record once it neither holds nor waits: its
// lists are empty then — the edges were rebuilt from no queued request —
// and their blocks go back to the slab with it.
func (t *Table) settle(owner OwnerID, r *ownerRec) {
	if len(r.held) == 0 && len(r.waiting) == 0 {
		delete(t.owners, owner)
		t.slab.objs.Drop(r.held, len(r.first))
		t.slab.queues.Drop(r.waiting, 0)
		t.slab.edges.Drop(r.edges, 0)
		t.slab.owners.Put(r)
	}
}

// Hook observes lock-table transitions. Both fields are optional; a
// zero Hook disables observation. Requested fires for every Lock call
// with its outcome and (for Queued/Deadlock) the conflicting holders;
// Granted fires for every delayed grant admitted from the queue.
type Hook struct {
	Requested func(req *Request, outcome Outcome, blockers []OwnerID)
	Granted   func(req *Request)
}

// SetHook installs h.
func (t *Table) SetHook(h Hook) { t.hook = h }

// holderEntry is one (owner, mode) holder of an object.
type holderEntry struct {
	owner OwnerID
	mode  Mode
}

// entry keeps holders as a small slice sorted by owner: holder sets are
// tiny (readers of one object), so sorted insertion beats a map and
// conflict scans come out pre-sorted for determinism. A new entry's
// holders start in the entry itself (first): an object cached by one
// site — most of them, at population scale — costs one 64-byte record,
// not an entry plus a one-element array. A holder set that outgrows it,
// and every wait queue, lives in a block of the slab.
type entry struct {
	holders []holderEntry
	queue   []*Request
	first   [1]holderEntry
}

// NewTable returns an empty lock table with records of its own.
func NewTable() *Table { return &Table{} }

// Init makes t an empty table, in place, on the system's slab (nil, as
// in the zero Table: a private one).
func (t *Table) Init(records *Slab) { *t = Table{slab: records} }

// Reserve switches the table to the dense entry index, pre-sized for
// object ids in [0, n). Call it before first use when the table will
// lock a dense id space (the server's whole-database table); leave
// unreserved tables on the sparse map.
func (t *Table) Reserve(n int) {
	t.dense = true
	if n > cap(t.entries) {
		grown := make([]*entry, len(t.entries), n)
		copy(grown, t.entries)
		t.entries = grown
	}
}

// lookup returns obj's entry, or nil when it has no locks or waiters.
func (t *Table) lookup(obj ObjectID) *entry {
	if t.dense {
		if int(obj) < len(t.entries) {
			return t.entries[obj]
		}
		return nil
	}
	return t.sparse[obj]
}

func (t *Table) entryFor(obj ObjectID) *entry {
	if e := t.lookup(obj); e != nil {
		return e
	}
	if t.slab == nil {
		t.slab = new(Slab) // a table on its own
	}
	e := t.slab.entries.New()
	e.holders = e.first[:0]
	if t.dense {
		for int(obj) >= len(t.entries) {
			t.entries = append(t.entries, nil)
		}
		t.entries[obj] = e
	} else {
		if t.sparse == nil {
			t.sparse = make(map[ObjectID]*entry)
		}
		t.sparse[obj] = e
	}
	return e
}

// retire returns obj's spent entry — no holder, no waiter — to the slab.
func (t *Table) retire(obj ObjectID, e *entry) {
	if t.dense {
		t.entries[obj] = nil
	} else {
		delete(t.sparse, obj)
	}
	t.slab.holders.Drop(e.holders, len(e.first))
	t.slab.queues.Drop(e.queue, 0)
	t.slab.entries.Put(e)
}

// find returns the index of owner in the sorted holder slice, or the
// insertion point when absent.
func (e *entry) find(owner OwnerID) (int, bool) {
	for i := range e.holders {
		if e.holders[i].owner == owner {
			return i, true
		}
		if e.holders[i].owner > owner {
			return i, false
		}
	}
	return len(e.holders), false
}

// holderMode returns owner's held mode (0 when not holding).
func (e *entry) holderMode(owner OwnerID) Mode {
	if i, ok := e.find(owner); ok {
		return e.holders[i].mode
	}
	return 0
}

// setHolder grants or updates owner's mode, maintaining sort order and
// the table's held-objects index.
func (t *Table) setHolder(obj ObjectID, e *entry, owner OwnerID, mode Mode) {
	i, ok := e.find(owner)
	if ok {
		e.holders[i].mode = mode
		return
	}
	e.holders = t.slab.holders.Insert(e.holders, i, holderEntry{owner: owner, mode: mode}, len(e.first))
	r := t.owner(owner)
	r.held = t.slab.objs.Insert(r.held, len(r.held), obj, len(r.first))
}

// delHolder removes owner's hold, reporting whether it was held.
func (t *Table) delHolder(obj ObjectID, e *entry, owner OwnerID) bool {
	i, ok := e.find(owner)
	if !ok {
		return false
	}
	e.holders = append(e.holders[:i], e.holders[i+1:]...)
	r := t.owners[owner]
	j := slices.Index(r.held, obj)
	r.held = slices.Delete(r.held, j, j+1)
	t.settle(owner, r)
	return true
}

// conflictsInto appends the holders of e that conflict with owner
// acquiring mode, sorted for determinism (the holder slice is kept
// sorted). A holder never conflicts with itself; an owner holding SL
// and requesting EL conflicts with every other holder.
func (e *entry) conflictsInto(owner OwnerID, mode Mode, buf []OwnerID) []OwnerID {
	for _, h := range e.holders {
		if h.owner == owner {
			continue
		}
		if !Compatible(mode, h.mode) {
			buf = append(buf, h.owner)
		}
	}
	return buf
}

// conflictCount counts the holders that would conflict, without
// materializing them.
func (e *entry) conflictCount(owner OwnerID, mode Mode) int {
	n := 0
	for _, h := range e.holders {
		if h.owner != owner && !Compatible(mode, h.mode) {
			n++
		}
	}
	return n
}

// Lock requests obj in mode for owner. Re-entrant requests at the same or
// weaker mode are granted immediately. On conflict the request is queued
// in deadline order unless that would create a wait-for cycle, in which
// case it is refused with Deadlock. The returned slice lists the
// conflicting holders (for callbacks / H2) whenever the outcome is Queued;
// it is table-owned scratch, valid only until the next table call.
func (t *Table) Lock(req *Request) (Outcome, []OwnerID) {
	if req.Mode != ModeShared && req.Mode != ModeExclusive {
		panic(fmt.Sprintf("lockmgr: invalid mode %d", req.Mode))
	}
	e := t.entryFor(req.Obj)
	if held := e.holderMode(req.Owner); held == req.Mode || held == ModeExclusive {
		req.granted = true
		return t.requested(req, Granted, nil)
	}
	conf := e.conflictsInto(req.Owner, req.Mode, t.confBuf[:0])
	t.confBuf = conf
	isUpgrade := e.holderMode(req.Owner) != 0
	// Upgrades bypass the queue-behind rule: an SL holder upgrading to
	// EL only needs the other holders gone, and making it queue behind
	// an unrelated waiter would deadlock it against its own held lock.
	if len(conf) == 0 && (isUpgrade || !t.mustQueueBehind(e, req)) {
		t.setHolder(req.Obj, e, req.Owner, req.Mode)
		req.granted = true
		return t.requested(req, Granted, nil)
	}
	if len(conf) > 0 && t.wouldDeadlock(req.Owner, conf) {
		t.DeadlocksRefused++
		return t.requested(req, Deadlock, conf)
	}
	t.enqueue(e, req)
	r := t.owners[req.Owner]
	for _, h := range conf {
		t.addEdge(r, h)
	}
	return t.requested(req, Queued, conf)
}

// requested funnels every Lock outcome through the hook.
func (t *Table) requested(req *Request, out Outcome, conf []OwnerID) (Outcome, []OwnerID) {
	if t.hook.Requested != nil {
		t.hook.Requested(req, out, conf)
	}
	return out, conf
}

// mustQueueBehind reports whether req, though compatible with current
// holders, must still wait because an earlier-deadline incompatible
// request is already queued (prevents shared readers starving a queued
// writer).
func (t *Table) mustQueueBehind(e *entry, req *Request) bool {
	for _, q := range e.queue {
		if q.Owner == req.Owner {
			continue
		}
		if !Compatible(req.Mode, q.Mode) {
			return true
		}
	}
	return false
}

func (t *Table) enqueue(e *entry, req *Request) {
	t.seq++
	req.seq = t.seq
	req.waiting = true
	i := sort.Search(len(e.queue), func(i int) bool {
		q := e.queue[i]
		if q.Deadline != req.Deadline {
			return q.Deadline > req.Deadline
		}
		return q.seq > req.seq
	})
	e.queue = t.slab.queues.Insert(e.queue, i, req, 0)
	r := t.owner(req.Owner)
	r.waiting = t.slab.queues.Insert(r.waiting, len(r.waiting), req, 0)
}

// dequeued maintains the owner's record when its queued request req
// leaves the queue (granted or canceled): the waiting index loses the
// request, and the wait-for edges are rebuilt from the requests still
// queued — holder sets shift while a request waits, so the edges it
// added cannot be subtracted, only recomputed from the current holders
// of the entries those requests wait in.
func (t *Table) dequeued(req *Request) {
	r := t.owners[req.Owner]
	r.waiting = unqueue(r.waiting, slices.Index(r.waiting, req))
	r.edges = r.edges[:0]
	for _, q := range r.waiting {
		for _, h := range t.lookup(q.Obj).holders {
			if h.owner != q.Owner && !Compatible(q.Mode, h.mode) {
				t.addEdge(r, h.owner)
			}
		}
	}
	t.settle(req.Owner, r)
}

// resetGrants empties the shared grant list for the call that is about
// to fill it.
func (t *Table) resetGrants() {
	clear(t.grantBuf)
	t.grantBuf = t.grantBuf[:0]
}

// Release drops owner's lock on obj and returns the requests that become
// granted as a result, in service order. The returned slice is
// table-owned scratch (see grantBuf).
func (t *Table) Release(obj ObjectID, owner OwnerID) []*Request {
	t.resetGrants()
	t.release(obj, owner)
	return t.grantBuf
}

// release is Release appending to the grant list instead of resetting
// it, so ReleaseAll can gather one list over several objects.
func (t *Table) release(obj ObjectID, owner OwnerID) {
	if e := t.lookup(obj); e != nil && t.delHolder(obj, e, owner) {
		t.admit(obj, e)
	}
}

// Downgrade weakens owner's EL on obj to SL (the modified callback
// scheme: the holder keeps reading while the requester proceeds in shared
// mode) and returns newly granted requests (table-owned scratch).
func (t *Table) Downgrade(obj ObjectID, owner OwnerID) []*Request {
	t.resetGrants()
	if e := t.lookup(obj); e != nil && e.holderMode(owner) == ModeExclusive {
		t.setHolder(obj, e, owner, ModeShared)
		t.admit(obj, e)
	}
	return t.grantBuf
}

// ReleaseAll drops every lock owner holds (strict 2PL commit/abort) and
// returns all newly granted requests across objects, in ascending object
// order (table-owned scratch).
func (t *Table) ReleaseAll(owner OwnerID) []*Request {
	t.resetGrants()
	// release edits the owner's record, and the last one retires it;
	// snapshot and order the set first.
	var stack [16]ObjectID
	var objs []ObjectID
	if r := t.owners[owner]; r != nil {
		objs = append(stack[:0], r.held...)
	}
	slices.Sort(objs)
	for _, obj := range objs {
		t.release(obj, owner)
	}
	return t.grantBuf
}

// Cancel removes a queued request (typically because its transaction
// missed its deadline) and returns any requests that become grantable
// once the canceled one no longer blocks the queue head (table-owned
// scratch).
func (t *Table) Cancel(req *Request) []*Request {
	t.resetGrants()
	if !req.waiting {
		return nil
	}
	e := t.lookup(req.Obj)
	if e == nil {
		return nil
	}
	for i, q := range e.queue {
		if q == req {
			e.queue = unqueue(e.queue, i)
			break
		}
	}
	req.waiting = false
	t.dequeued(req)
	t.admit(req.Obj, e)
	return t.grantBuf
}

// unqueue removes the i'th request of a wait queue or a waiting index by
// shifting the tail down, so the list's block — front included — stays
// with its record.
func unqueue(q []*Request, i int) []*Request {
	last := len(q) - 1
	copy(q[i:], q[i+1:])
	q[last] = nil
	return q[:last]
}

// admit grants queued requests in deadline order while they remain
// compatible with the holders, stopping at the first conflict so earlier
// deadlines are never starved by later compatible ones. The grants are
// appended to the table's shared grant list.
func (t *Table) admit(obj ObjectID, e *entry) {
	for len(e.queue) > 0 {
		req := e.queue[0]
		if e.conflictCount(req.Owner, req.Mode) > 0 {
			break
		}
		e.queue = unqueue(e.queue, 0)
		t.setHolder(obj, e, req.Owner, req.Mode)
		req.waiting = false
		req.granted = true
		t.dequeued(req)
		if t.hook.Granted != nil {
			t.hook.Granted(req)
		}
		if req.wake != nil {
			req.wake.Broadcast()
		}
		t.grantBuf = append(t.grantBuf, req)
	}
	if len(e.holders) == 0 && len(e.queue) == 0 {
		t.retire(obj, e)
	}
}

// HolderMode returns the mode owner holds on obj (0 when not held).
func (t *Table) HolderMode(obj ObjectID, owner OwnerID) Mode {
	if e := t.lookup(obj); e != nil {
		return e.holderMode(owner)
	}
	return 0
}

// NextWaiter returns the head of obj's wait queue (the earliest-deadline
// pending request), or nil when nothing waits.
func (t *Table) NextWaiter(obj ObjectID) *Request {
	if e := t.lookup(obj); e != nil && len(e.queue) > 0 {
		return e.queue[0]
	}
	return nil
}

// FirstForeignWaiter returns the earliest queued request on obj not
// owned by owner, or nil.
func (t *Table) FirstForeignWaiter(obj ObjectID, owner OwnerID) *Request {
	if e := t.lookup(obj); e != nil {
		for _, q := range e.queue {
			if q.Owner != owner {
				return q
			}
		}
	}
	return nil
}

// HasWaiter reports whether owner has a request queued on obj — the
// server's duplicate-request guard under fault injection.
func (t *Table) HasWaiter(obj ObjectID, owner OwnerID) bool {
	r := t.owners[owner]
	return r != nil && slices.ContainsFunc(r.waiting, func(q *Request) bool { return q.Obj == obj })
}

// QueueLen returns the number of requests waiting on obj.
func (t *Table) QueueLen(obj ObjectID) int {
	if e := t.lookup(obj); e != nil {
		return len(e.queue)
	}
	return 0
}

// ConflictingHolders returns the holders that would conflict with owner
// acquiring obj in mode right now. The returned slice is table-owned
// scratch, valid only until the next table call.
func (t *Table) ConflictingHolders(obj ObjectID, owner OwnerID, mode Mode) []OwnerID {
	if e := t.lookup(obj); e != nil {
		t.confBuf = e.conflictsInto(owner, mode, t.confBuf[:0])
		return t.confBuf
	}
	return nil
}

// HolderCount returns the number of holders of obj; HolderAt returns
// the i'th holder in ascending owner order. Together they expose the
// holder set without allocating.
func (t *Table) HolderCount(obj ObjectID) int {
	if e := t.lookup(obj); e != nil {
		return len(e.holders)
	}
	return 0
}

// HolderAt returns the i'th holder of obj and its mode, in ascending
// owner order.
func (t *Table) HolderAt(obj ObjectID, i int) (OwnerID, Mode) {
	e := t.lookup(obj)
	return e.holders[i].owner, e.holders[i].mode
}

// wouldDeadlock reports whether adding edges owner→each holder closes a
// cycle, i.e. whether owner is reachable from any holder.
func (t *Table) wouldDeadlock(owner OwnerID, holders []OwnerID) bool {
	t.ddGen++
	for _, h := range holders {
		if t.ddReach(h, owner) {
			return true
		}
	}
	return false
}

// ddReach is wouldDeadlock's depth-first search, visiting each owner's
// neighbours in ascending order. An owner without a record waits for
// nobody.
func (t *Table) ddReach(from, owner OwnerID) bool {
	if from == owner {
		return true
	}
	r := t.owners[from]
	if r == nil || r.ddGen == t.ddGen {
		return false
	}
	r.ddGen = t.ddGen
	for _, to := range r.edges {
		if t.ddReach(to, owner) {
			return true
		}
	}
	return false
}

// addEdge records that r's owner waits for to.
func (t *Table) addEdge(r *ownerRec, to OwnerID) {
	if i, found := slices.BinarySearch(r.edges, to); !found {
		r.edges = t.slab.edges.Insert(r.edges, i, to, 0)
	}
}

// Audit verifies internal invariants: no conflicting holders coexist and
// no granted request is still queued. It walks the table in place —
// the invariant monitor calls it after every kernel event — and returns
// an error describing the violation on the lowest-numbered object, so
// the report repeats from run to run whatever order the sparse map
// iterates in.
func (t *Table) Audit() error {
	if t.dense {
		for obj, e := range t.entries {
			if e == nil {
				continue
			}
			if err := e.audit(ObjectID(obj)); err != nil {
				return err
			}
		}
		return nil
	}
	var first error
	var firstObj ObjectID
	for obj, e := range t.sparse {
		if first != nil && obj > firstObj {
			continue
		}
		if err := e.audit(obj); err != nil {
			first, firstObj = err, obj
		}
	}
	return first
}

// audit checks one object's entry.
func (e *entry) audit(obj ObjectID) error {
	if len(e.holders) <= 1 && len(e.queue) == 0 {
		return nil // one holder and nobody waiting: nothing to conflict
	}
	var sharers, exclusives int
	for _, h := range e.holders {
		switch h.mode {
		case ModeShared:
			sharers++
		case ModeExclusive:
			exclusives++
		}
	}
	if exclusives > 1 || (exclusives == 1 && sharers > 0) {
		return fmt.Errorf("lockmgr: object %d held incompatibly (%d SL, %d EL)", obj, sharers, exclusives)
	}
	for _, q := range e.queue {
		if q.granted {
			return fmt.Errorf("lockmgr: object %d has granted request still queued", obj)
		}
	}
	return nil
}
