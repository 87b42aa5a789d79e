package slab

import "math/bits"

// Record is what an Index holds: a pointer to a record that carries its
// own key, so that a slot is that one word.
type Record interface {
	comparable
	Key() uint64
}

// minSlots is the length of an index's first slot block: two records
// before it grows.
const minSlots = 4

// Index maps integer keys to records: one open-addressed table of record
// pointers, probed linearly from a Fibonacci hash of the key, at most
// half full, deleted from by backward shift, so no slot is ever a
// tombstone. Its table and slot block come from an IndexSlab and go back
// to it — an outgrown block when the table grows, both when the last
// record leaves — so the zero Index is empty and holds no storage, and
// an index that empties gives its storage back. The field is one word,
// so a site that embeds one pays a pointer until it has a record.
type Index[P Record] struct{ t *table[P] }

// table is an index's storage.
type table[P Record] struct {
	slots []P // len(slots) is a power of two, at least 2n
	n     int32
	shift uint8 // 64 - log2(len(slots)): a hash's top bits are its home
}

// IndexSlab is the stock the indexes of one owner's records take their
// tables and slot blocks from and hand them back to.
type IndexSlab[P Record] struct {
	tables Slab[table[P]]
	slots  Slab[P]
}

// home returns key's first slot: the top bits of the key times 2^64/φ.
func (t *table[P]) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> t.shift) }

// Get returns key's record, or the zero P when x holds none.
func (x *Index[P]) Get(key uint64) P {
	var none P
	t := x.t
	if t == nil {
		return none
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if p := t.slots[i]; p == none || p.Key() == key {
			return p
		}
	}
}

// Put adds p, whose key x does not hold yet.
func (x *Index[P]) Put(s *IndexSlab[P], p P) {
	var none P
	t := x.t
	switch {
	case t == nil:
		t = s.tables.New()
		t.alloc(s, minSlots)
		x.t = t
	case 2*int(t.n+1) > len(t.slots):
		old := t.slots
		t.alloc(s, 2*len(old))
		for _, q := range old {
			if q != none {
				t.place(q)
			}
		}
		s.slots.PutBlock(old)
	}
	t.place(p)
	t.n++
}

// alloc gives t an empty block of n slots.
func (t *table[P]) alloc(s *IndexSlab[P], n int) {
	t.slots = s.slots.Block(n)
	t.shift = uint8(65 - bits.Len(uint(n)))
}

// place puts p in the first empty slot from its home.
func (t *table[P]) place(p P) {
	var none P
	mask := len(t.slots) - 1
	i := t.home(p.Key())
	for t.slots[i] != none {
		i = (i + 1) & mask
	}
	t.slots[i] = p
}

// Delete removes key's record, if x holds one. The record that empties
// the index takes its storage back to s.
func (x *Index[P]) Delete(s *IndexSlab[P], key uint64) {
	var none P
	t := x.t
	if t == nil {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i] != none && t.slots[i].Key() != key {
		i = (i + 1) & mask
	}
	if t.slots[i] == none {
		return
	}
	if t.n--; t.n == 0 {
		s.slots.PutBlock(t.slots)
		s.tables.Put(t)
		x.t = nil
		return
	}
	// Backward shift: each later record of the cluster whose home does
	// not lie between the hole and its slot moves into the hole, which
	// moves to where it was; the cluster's end is the last hole.
	for j := i; ; {
		j = (j + 1) & mask
		q := t.slots[j]
		if q == none {
			break
		}
		if (j-t.home(q.Key()))&mask >= (j-i)&mask {
			t.slots[i] = q
			i = j
		}
	}
	t.slots[i] = none
}

// Each calls fn for every record of x, once each, in slot order. fn may
// Delete the record it was handed and no other, and may Put nothing.
func (x *Index[P]) Each(fn func(P)) {
	var none P
	t := x.t
	if t == nil {
		return
	}
	// The walk starts past an empty slot — at most half full, the table
	// has one — and goes round once. A delete shifts records back
	// towards their homes and never across an empty slot, so from there
	// no cluster wraps behind the walk: a shifted record moves into the
	// slot just visited or one after it, never to one already passed.
	mask := len(t.slots) - 1
	start := 0
	for t.slots[start] != none {
		start++
	}
	for k := 1; k <= mask; {
		i := (start + k) & mask
		if p := t.slots[i]; p != none {
			fn(p)
			if x.t == nil {
				return // fn deleted the last record
			}
			if t.slots[i] != p {
				continue // deleted: what shifted into the slot is next
			}
		}
		k++
	}
}
