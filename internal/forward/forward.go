// Package forward implements the grouped-lock object migration of
// Section 3.4: the server collects the lock requests that arrive for an
// object during a collection window into a deadline-ordered forward
// list, grants the lock to the first entry, and the object then hops
// client-to-client down the list — combining each lock release with the
// next grant. For n grouped requests the protocol needs 2n+1 messages
// where per-request callback locking needs 3n to 4n.
//
// Entries whose transactions have already missed their deadlines are
// skipped at each hop, and a run of consecutive shared-mode entries is
// annotated as a parallel-read group.
package forward

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
	"siteselect/internal/slab"
	"siteselect/internal/txn"
)

// Entry is one pending request in a forward list.
type Entry struct {
	Client   netsim.SiteID
	Mode     lockmgr.Mode
	Deadline time.Duration
	Txn      txn.ID
	// Num is the request number of the entry (proto.ObjRequest.Nums),
	// renumbered while the list waits at the shard by each release of the
	// object the client sends (proto.ObjReturn.Num). The grant or hop
	// delivering the entry carries it so the recipient can detect
	// staleness.
	Num int64
}

// List is a deadline-ordered forward list for one object.
type List struct {
	Obj     lockmgr.ObjectID
	Entries []Entry
	// ReadRun marks a parallel read-only list (the Section 3.4
	// annotation): every entry already holds a registered SL, the
	// object hops down the run immediately without waiting for commits,
	// each recipient keeps its copy, and nothing returns to the server.
	ReadRun bool
	// Retained accumulates clients that kept a clean shared copy as the
	// object passed through an exclusive migration (only legal while no
	// exclusive entry remains downstream); the server registers these
	// SLs when the object returns.
	Retained []netsim.SiteID

	// stock is the Stock the list came from and grows in, nil for a list
	// of its own (NewList). block is the array Entries lives in, which
	// PopLive and PopRun leave behind from the front; free marks a list
	// handed back.
	stock *Stock
	block []Entry
	free  bool
}

// Stock is a cluster's stock of forward lists: the lists, and the
// power-of-two blocks their entries and retained sites live in. A list
// crosses sites inside messages, so no site owns it; the stock does —
// the shard carves one at a window's first request or a dispatch, and
// it is handed back where its life ends: an open list merged into the
// sealed one, a sealed list dispatched to its last entry, the shard's
// in-flight copy and the travelling copy at the final return (DESIGN.md,
// "Record ownership"). A list goes back with its arrays, so a steady
// round of lists allocates nothing. Single-threaded; the zero Stock is
// ready to use.
type Stock struct {
	lists   slab.Slab[List]
	entries slab.Slab[Entry]
	sites   slab.Slab[netsim.SiteID]
}

// New returns an empty list for obj: one handed back earlier, with the
// arrays it grew, or a new one.
func (s *Stock) New(obj lockmgr.ObjectID) *List {
	l := s.lists.New()
	l.Obj, l.stock, l.free = obj, s, false
	return l
}

// Put hands l, a list New returned, back to the stock. Nothing may read
// or write it afterwards: handing one back twice panics.
func (s *Stock) Put(l *List) {
	if l.stock != s || l.free {
		panic(fmt.Sprintf("forward: list for %d handed back twice or to a stock it is not from", l.Obj))
	}
	*l = List{Entries: l.block[:0], Retained: l.Retained[:0], stock: s, block: l.block, free: true}
	s.lists.Keep(l)
}

// Contains reports whether an entry for (client, id) is on the list —
// the server's duplicate-request guard under fault injection.
func (l *List) Contains(client netsim.SiteID, id txn.ID) bool {
	for _, e := range l.Entries {
		if e.Client == client && e.Txn == id {
			return true
		}
	}
	return false
}

// Wellformed verifies the list's structural invariant — entries in
// nondecreasing deadline order — and returns the first violation. The
// invariant monitor and the fuzz targets run it after every mutation.
func (l *List) Wellformed() error {
	for i := 1; i < len(l.Entries); i++ {
		if prev, cur := l.Entries[i-1], l.Entries[i]; prev.Deadline > cur.Deadline {
			return fmt.Errorf("forward: list %d out of deadline order at %d (%v > %v)", l.Obj, i, prev.Deadline, cur.Deadline)
		}
	}
	return nil
}

// HasExclusive reports whether any remaining entry needs an EL.
func (l *List) HasExclusive() bool {
	for _, e := range l.Entries {
		if e.Mode == lockmgr.ModeExclusive {
			return true
		}
	}
	return false
}

// NewList returns an empty list for obj.
func NewList(obj lockmgr.ObjectID) *List { return &List{Obj: obj} }

// Len returns the number of pending entries.
func (l *List) Len() int { return len(l.Entries) }

// Insert adds e keeping deadline order, ties in arrival order: e goes
// before the first entry with a later deadline.
func (l *List) Insert(e Entry) {
	i := sort.Search(len(l.Entries), func(i int) bool { return l.Entries[i].Deadline > e.Deadline })
	if l.stock != nil && len(l.Entries) == cap(l.Entries) {
		l.room(len(l.Entries) + 1)
	}
	l.Entries = append(l.Entries, Entry{})
	copy(l.Entries[i+1:], l.Entries[i:])
	l.Entries[i] = e
}

// room makes room for n entries in a stock list: the entries the front
// pops left behind slide back to the start of the block, or move to a
// block of the stock's, the least power of two that holds n, and the
// outgrown block goes back.
func (l *List) room(n int) {
	if n <= cap(l.block) {
		l.Entries = l.block[:copy(l.block, l.Entries)]
		return
	}
	grown := l.stock.entries.Block(max(1<<bits.Len(uint(n-1)), 2))
	l.Entries = grown[:copy(grown, l.Entries)]
	l.stock.entries.PutBlock(l.block)
	l.block = grown
}

// Retain adds site to the clients that kept a shared copy.
func (l *List) Retain(site netsim.SiteID) {
	if l.stock == nil {
		l.Retained = append(l.Retained, site)
		return
	}
	l.Retained = l.stock.sites.Insert(l.Retained, len(l.Retained), site, 0)
}

// PopLive removes and returns the first entry whose deadline has not
// passed at now, dropping the dead entries before it (the paper's
// "deadline information ... is used to ignore transactions that have
// missed their deadlines"). ok is false when no live entry remains.
func (l *List) PopLive(now time.Duration) (e Entry, ok bool) {
	for len(l.Entries) > 0 {
		head := l.Entries[0]
		l.Entries = l.Entries[1:]
		if head.Deadline >= now {
			return head, true
		}
	}
	return Entry{}, false
}

// Last returns the final live entry — the client the server reports as
// the object's (future) location when answering location queries.
func (l *List) Last(now time.Duration) (Entry, bool) {
	for i := len(l.Entries) - 1; i >= 0; i-- {
		if l.Entries[i].Deadline >= now {
			return l.Entries[i], true
		}
	}
	return Entry{}, false
}

// PopRun removes the leading run of live entries that share the first
// live entry's mode, dropping dead entries anywhere in the run, and
// appends it to run. A shared run may be served in parallel (the paper's
// parallel read-only annotation); an exclusive run forms a migration
// pipeline.
func (l *List) PopRun(run []Entry, now time.Duration) []Entry {
	var mode lockmgr.Mode
	for len(l.Entries) > 0 {
		head := l.Entries[0]
		if head.Deadline >= now {
			if mode == 0 {
				mode = head.Mode
			}
			if head.Mode != mode {
				break
			}
			run = append(run, head)
		}
		l.Entries = l.Entries[1:]
	}
	return run
}

// Clone returns a deep copy (the server ships a copy with the object),
// from l's stock when it has one.
func (l *List) Clone() *List {
	if l.stock == nil {
		c := &List{Obj: l.Obj, ReadRun: l.ReadRun}
		c.Entries = append([]Entry(nil), l.Entries...)
		c.Retained = append([]netsim.SiteID(nil), l.Retained...)
		return c
	}
	c := l.stock.New(l.Obj)
	c.ReadRun = l.ReadRun
	c.room(len(l.Entries))
	c.Entries = append(c.Entries, l.Entries...)
	for _, site := range l.Retained {
		c.Retain(site)
	}
	return c
}

// Collector is the collection-window clock: Open starts an object's
// window, and when the window elapses the owner's seal runs for the
// object. The lists themselves are the owner's (the server keeps an
// object's still-collecting list in its record). Every window is the
// same length, so windows close in the order they opened: the collector
// posts itself as one event per window and queues the objects, and each
// firing seals the oldest. A window whose list was sealed early still
// fires; seal then finds nothing, or the list a later request opened.
type Collector struct {
	env    *sim.Env
	window time.Duration
	seal   func(lockmgr.ObjectID)
	// fifo[head:] are the objects whose windows are open, oldest first.
	fifo []lockmgr.ObjectID
	head int
}

// Init readies c to call seal(obj) window after each Open(obj); window
// is not negative. A zero window closes at the instant it opens, after
// every event already due then.
func (c *Collector) Init(env *sim.Env, window time.Duration, seal func(lockmgr.ObjectID)) {
	*c = Collector{env: env, window: window, seal: seal}
}

// Open starts a collection window for obj.
func (c *Collector) Open(obj lockmgr.ObjectID) {
	if c.head > 0 && len(c.fifo) == cap(c.fifo) {
		c.fifo, c.head = c.fifo[:copy(c.fifo, c.fifo[c.head:])], 0
	}
	c.fifo = append(c.fifo, obj)
	c.env.AtHook(c.env.Now()+c.window, c)
}

// RunEvent closes the oldest open window. It implements sim.EventHook.
func (c *Collector) RunEvent() {
	obj := c.fifo[c.head]
	if c.head++; c.head == len(c.fifo) {
		c.fifo, c.head = c.fifo[:0], 0
	}
	c.seal(obj)
}
