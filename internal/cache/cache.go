// Package cache implements the client-side object cache of the paper's
// object-shipping architecture: a two-tier (main memory + local disk)
// LRU store holding database objects together with the locks cached on
// them for inter-transaction reuse.
//
// The cache tracks which tier served a lookup so the client can charge
// local-disk latency for disk-tier hits, and reports demotions and
// evictions so the client can return dirty objects (and release cached
// locks) to the server.
package cache

import (
	"siteselect/internal/lockmgr"
	"siteselect/internal/slab"
)

// Entry is one cached object.
type Entry struct {
	Obj lockmgr.ObjectID
	// Mode is the cached lock mode (SL or EL).
	Mode lockmgr.Mode
	// Version is the logical version of the cached copy, used by the
	// consistency audits.
	Version int64

	pins int
	tier Tier
	// Intrusive LRU links: each entry is its own list node, so pin/unpin
	// and touch cycles allocate nothing.
	prev, next *Entry
	inLRU      bool
	// Dirty marks locally updated objects not yet returned to the server
	// (beside inLRU: the flags share the entry's eighth word).
	Dirty bool
}

// Pinned reports whether the entry is in use by a running transaction.
func (e *Entry) Pinned() bool { return e.pins > 0 }

// Pins returns the current pin count.
func (e *Entry) Pins() int { return e.pins }

// Tier identifies a cache level.
type Tier int

// Cache tiers.
const (
	// TierNone means not cached.
	TierNone Tier = iota
	// TierMemory is the client's in-memory cache.
	TierMemory
	// TierDisk is the client's on-disk cache.
	TierDisk
)

// lruList is an intrusive doubly-linked list of entries; front = most
// recently used. Only unpinned entries are linked.
type lruList struct {
	front, back *Entry
}

func (l *lruList) pushFront(e *Entry) {
	e.prev = nil
	e.next = l.front
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
	e.inLRU = true
}

func (l *lruList) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	e.inLRU = false
}

func (l *lruList) moveToFront(e *Entry) {
	if l.front == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// Cache is a two-tier LRU object cache.
type Cache struct {
	memCap, diskCap int
	entries         map[lockmgr.ObjectID]*Entry
	memLRU          lruList // front = most recent; unpinned only
	diskLRU         lruList
	memCount        int // includes pinned entries
	diskCount       int

	// MemoryHits, DiskHits and Misses count Lookup outcomes.
	MemoryHits int64
	DiskHits   int64
	Misses     int64

	// slab is where entries come from — the system's, shared by its
	// sites, or a private one made by the first Insert — and go back to,
	// via Recycle only: eviction and removal results are handed to the
	// caller first (locks must be returned to the server).
	slab *Slab
}

// Slab is a system's stock of entries, handed to every site's cache.
type Slab = slab.Slab[Entry]

// New returns a cache with the given per-tier capacities (in objects).
func New(memCap, diskCap int) *Cache {
	c := new(Cache)
	c.Init(memCap, diskCap, nil)
	return c
}

// Init makes c an empty cache with the given per-tier capacities, in
// place (a field of its owner), drawing its entries from the system's
// slab — nil for a cache on its own. The entry map is made by the first
// Insert: at population scale many sites never cache anything, and
// reads of a nil map are reads of an empty one.
func (c *Cache) Init(memCap, diskCap int, entries *Slab) {
	if memCap <= 0 {
		panic("cache: memory capacity must be positive")
	}
	if diskCap < 0 {
		diskCap = 0
	}
	*c = Cache{memCap: memCap, diskCap: diskCap, slab: entries}
}

// Peek returns the entry without touching LRU state or hit counters.
func (c *Cache) Peek(obj lockmgr.ObjectID) *Entry { return c.entries[obj] }

// Lookup finds obj, promotes disk-tier hits to memory, updates recency
// and hit counters, and returns the entry with the tier that served it
// (TierNone on miss). Promotion may demote the memory LRU victim to disk
// and, transitively, evict the disk LRU victim; such fallout is returned
// so the caller can notify the server.
func (c *Cache) Lookup(obj lockmgr.ObjectID) (*Entry, Tier, []*Entry) {
	e, ok := c.entries[obj]
	if !ok {
		c.Misses++
		return nil, TierNone, nil
	}
	served := e.tier
	var evicted []*Entry
	switch e.tier {
	case TierMemory:
		c.MemoryHits++
		c.touch(e)
	case TierDisk:
		c.DiskHits++
		evicted = c.promote(e)
	}
	return e, served, evicted
}

// Insert caches obj in the memory tier, replacing any existing entry's
// mode/dirty/version in place. It returns the entries pushed out of the
// cache entirely (disk-tier evictions), whose locks the caller must
// return to the server.
func (c *Cache) Insert(obj lockmgr.ObjectID, mode lockmgr.Mode, dirty bool, version int64) []*Entry {
	if e, ok := c.entries[obj]; ok {
		e.Mode = mode
		e.Dirty = e.Dirty || dirty
		e.Version = version
		if e.tier == TierDisk {
			return c.promote(e)
		}
		c.touch(e)
		return nil
	}
	if c.slab == nil {
		c.slab = new(Slab)
	}
	e := c.slab.New()
	*e = Entry{Obj: obj, Mode: mode, Dirty: dirty, Version: version, tier: TierMemory}
	if c.entries == nil {
		c.entries = make(map[lockmgr.ObjectID]*Entry)
	}
	c.entries[obj] = e
	c.memCount++
	c.memLRU.pushFront(e)
	return c.shrink()
}

// Pin marks the entry in use, excluding it from eviction.
func (c *Cache) Pin(e *Entry) {
	e.pins++
	if e.inLRU {
		c.lruOf(e.tier).remove(e)
	}
}

// Unpin releases one pin; at zero the entry becomes evictable again.
func (c *Cache) Unpin(e *Entry) {
	if e.pins <= 0 {
		panic("cache: Unpin of unpinned entry")
	}
	e.pins--
	if e.pins == 0 {
		c.lruOf(e.tier).pushFront(e)
	}
}

// Remove drops obj from the cache (server callback or voluntary
// release). Removing a pinned entry panics: callbacks must wait for
// local transactions to finish first.
func (c *Cache) Remove(obj lockmgr.ObjectID) *Entry {
	e, ok := c.entries[obj]
	if !ok {
		return nil
	}
	if e.pins > 0 {
		panic("cache: Remove of pinned entry")
	}
	c.drop(e)
	return e
}

// Recycle returns an evicted or removed entry to the slab.
// Call it only after the entry has been fully processed and no other
// reference to it remains; a still-cached entry panics.
func (c *Cache) Recycle(e *Entry) {
	if e == nil {
		return
	}
	if e.tier != TierNone {
		panic("cache: Recycle of live entry")
	}
	c.slab.Put(e)
}

// Visit calls fn for every cached entry, in place and in unspecified
// order: a caller whose result depends on which entry it saw first must
// reduce over all of them (audits report the lowest-numbered failing
// object). fn may Remove the entry it was handed and no other.
func (c *Cache) Visit(fn func(*Entry)) {
	for _, e := range c.entries {
		fn(e)
	}
}

func (c *Cache) lruOf(t Tier) *lruList {
	if t == TierDisk {
		return &c.diskLRU
	}
	return &c.memLRU
}

func (c *Cache) touch(e *Entry) {
	if e.inLRU {
		c.lruOf(e.tier).moveToFront(e)
	}
}

// promote moves a disk-tier entry to memory, shrinking tiers as needed.
func (c *Cache) promote(e *Entry) []*Entry {
	if e.inLRU {
		c.diskLRU.remove(e)
	}
	c.diskCount--
	e.tier = TierMemory
	c.memCount++
	if e.pins == 0 {
		c.memLRU.pushFront(e)
	}
	return c.shrink()
}

// shrink restores tier capacity invariants: memory overflow demotes the
// memory LRU victim to disk; disk overflow evicts the disk LRU victim.
// Pinned entries are never moved. Returns fully evicted entries.
func (c *Cache) shrink() []*Entry {
	var evicted []*Entry
	for c.memCount > c.memCap {
		v := c.memLRU.back
		if v == nil || v == c.memLRU.front {
			// Everything else is pinned: evicting the sole unpinned
			// entry (the one just inserted/touched) would thrash, so
			// allow transient overflow until pins drop.
			break
		}
		c.memLRU.remove(v)
		c.memCount--
		if c.diskCap == 0 {
			delete(c.entries, v.Obj)
			v.tier = TierNone
			evicted = append(evicted, v)
			continue
		}
		v.tier = TierDisk
		c.diskCount++
		c.diskLRU.pushFront(v)
	}
	for c.diskCount > c.diskCap {
		v := c.diskLRU.back
		if v == nil {
			break
		}
		c.drop(v)
		evicted = append(evicted, v)
	}
	return evicted
}

func (c *Cache) drop(e *Entry) {
	if e.inLRU {
		c.lruOf(e.tier).remove(e)
	}
	switch e.tier {
	case TierMemory:
		c.memCount--
	case TierDisk:
		c.diskCount--
	}
	delete(c.entries, e.Obj)
	e.tier = TierNone
}
