// Package slab carves the records of one type from chunks, so that a
// run's working set — cache entries, lock-table records, transactions,
// machines, message payloads — costs the allocator one object per few
// hundred records, not one each. A Slab belongs to the system it serves
// and is shared by its sites: it is the one thing in the tree that pops
// a spent record or makes a new one, and sites keep no free lists of
// their own (DESIGN.md, "Record ownership"). Single-threaded; the zero
// Slab is ready to use.
//
// An Index finds records by integer key — a site's cached copies by
// object, its lock records by object and by owner — in a table whose
// storage its owner's IndexSlab carves and takes back the same way, so a
// site's indexes, like its records, cost the allocator nothing of their
// own.
package slab

import (
	"math/bits"
	"unsafe"
)

const (
	// firstChunk is the length of a slab's first chunk: a lone table or
	// cache with a private slab pays for a few records, not a population's.
	firstChunk = 4
	// chunkBytes bounds a chunk: chunks double from firstChunk records to
	// the most that fit in it — an allocator size class, less the header
	// before an array that holds pointers (16 KB exactly is charged 18).
	chunkBytes = 16<<10 - 16
	// blockBytes bounds the blocks a slab carves and keeps. A longer one
	// is an array of its own and the collector's once outgrown: kept, the
	// blocks a thousand-lock list grew through outweigh the list.
	blockBytes = 1 << 10
)

// Slab is a stock of T records.
type Slab[T any] struct {
	tail  []T // the uncarved rest of the newest chunk
	chunk int // the length of the next one
	// free holds the records handed back — zeroed by Put, as their owner
	// left them by Keep — blocks the zeroed blocks handed back, by the
	// log2 of their capacity.
	free   []*T
	blocks [][][]T
}

// New returns the record last handed back — zeroed if by Put, exactly as
// its owner left it if by Keep — or, with none, a new zeroed one.
func (s *Slab[T]) New() *T {
	if n := len(s.free); n > 0 {
		x := s.free[n-1]
		s.free = s.free[:n-1]
		return x
	}
	return &s.Block(1)[0]
}

// Put zeroes x, a record New returned, and keeps it for the next New.
func (s *Slab[T]) Put(x *T) {
	*x = *new(T)
	s.free = append(s.free, x)
}

// Keep keeps x, a record New returned, for the next New as it is: reset
// by its owner, vectors emptied with their capacity, and pinning no
// garbage — pointer fields and pointer-bearing vectors (to capacity)
// are the owner's to clear first.
func (s *Slab[T]) Keep(x *T) { s.free = append(s.free, x) }

// Block returns n contiguous zeroed records, a slice of that length and
// capacity: a block of that capacity handed back earlier, the next n of
// the newest chunk, or — past blockBytes — an array of its own.
func (s *Slab[T]) Block(n int) []T {
	if c := class(n); c < len(s.blocks) && n == 1<<c {
		if k := len(s.blocks[c]); k > 0 {
			b := s.blocks[c][k-1]
			s.blocks[c] = s.blocks[c][:k-1]
			return b
		}
	}
	size := int(unsafe.Sizeof(*new(T)))
	if n > 1 && n*size > blockBytes {
		return make([]T, n)
	}
	if n > len(s.tail) {
		// The old chunk's last records, fewer than n, are given up.
		length := max(s.chunk, firstChunk, n)
		s.tail = make([]T, length)
		s.chunk = min(2*length, max(firstChunk, chunkBytes/size))
	}
	b := s.tail[:n:n]
	s.tail = s.tail[n:]
	return b
}

// PutBlock zeroes b, a block whose capacity is a power of two, keeps it
// for the next Block of that length and reports true. Any other block is
// only zeroed, and PutBlock reports false: one past blockBytes is left to
// the collector, or to an owner that keeps it (a mailbox's ring).
func (s *Slab[T]) PutBlock(b []T) bool {
	return s.keep(b, true)
}

// Return zeroes the block of v, a vector a record took with Fit for one
// use and hands back when the use ends, and keeps it for the next Block
// of its length — past blockBytes too, unlike PutBlock: such vectors
// circulate, so what s keeps of them is bounded by the uses at once, not
// by the lengths a list once grew through.
func (s *Slab[T]) Return(v []T) {
	s.keep(v, false)
}

// keep zeroes b and keeps it if its capacity is a power of two and,
// when bounded, its bytes at most blockBytes, reporting whether it did.
func (s *Slab[T]) keep(b []T, bounded bool) bool {
	b = b[:cap(b)]
	clear(b)
	c := class(len(b))
	if len(b) == 0 || len(b) != 1<<c || bounded && len(b) > 1 && len(b)*int(unsafe.Sizeof(b[0])) > blockBytes {
		return false
	}
	for len(s.blocks) <= c {
		s.blocks = append(s.blocks, nil)
	}
	s.blocks[c] = append(s.blocks[c], b)
	return true
}

// Insert puts x at index i of list, which lives in a block of s or — at
// capacity own — in its record's own array. A full list moves to a block
// of twice the capacity and hands the outgrown one back.
func (s *Slab[T]) Insert(list []T, i int, x T, own int) []T {
	if len(list) == cap(list) {
		grown := s.Block(max(2*cap(list), 2))[:len(list)]
		copy(grown, list)
		s.Drop(list, own)
		list = grown
	}
	list = list[:len(list)+1]
	copy(list[i+1:], list[i:])
	list[i] = x
	return list
}

// Fit returns v emptied with room for n: v itself when its array holds
// n, or else a block of s of the next power of two at least n, and v's
// block goes back to s. A vector sized by each use — a machine's
// per-access vectors — takes a block that another use handed back
// (Return), not an array of its own at every new length.
func (s *Slab[T]) Fit(v []T, n int) []T {
	if n <= cap(v) {
		return v[:0]
	}
	s.Return(v)
	return s.Block(1 << class(n))[:0]
}

// Drop hands list's block back, unless list lives in its record (own).
func (s *Slab[T]) Drop(list []T, own int) {
	if cap(list) > own {
		s.PutBlock(list)
	}
}

// class returns the least c with n <= 1<<c.
func class(n int) int { return bits.Len(uint(n - 1)) }
