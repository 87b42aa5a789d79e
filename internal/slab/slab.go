// Package slab carves the records of one type from chunks, so that a
// run's working set — cache entries, lock-table records, transactions —
// costs the allocator one object per few hundred records instead of one
// per record.
//
// A Slab belongs to the system it serves, as proto.Pool does: the system
// constructor owns one per record type, hands it to every site, and it
// dies with the system. Sites keep no free lists of their own — a record
// one site hands back is the next any site takes — and a chunk is never
// returned to the heap while its system lives. A slab is single-threaded,
// like the cluster it belongs to; the zero Slab is ready to use.
package slab

import (
	"math/bits"
	"unsafe"
)

const (
	// firstChunk is the number of records in a slab's first chunk: a
	// lone table or cache that made a private slab pays for a few
	// records, not for a population's.
	firstChunk = 4
	// chunkBytes bounds a chunk: chunks double from firstChunk records
	// to the most that fit in this many bytes — a size class of the
	// allocator's, less the header it puts before an array that holds
	// pointers (a chunk of 16 KB exactly is charged 18).
	chunkBytes = 16<<10 - 16
	// blockBytes bounds the blocks a slab carves and keeps. A longer one
	// is an array of its own, the collector's again once outgrown: kept,
	// the blocks a thousand-lock holder list grew through would outweigh
	// the list.
	blockBytes = 1 << 10
)

// Slab is a stock of T records.
type Slab[T any] struct {
	// tail is the uncarved rest of the newest chunk.
	tail []T
	// chunk is the length of the next chunk.
	chunk int
	// free holds the records handed back, zeroed; blocks the blocks
	// handed back, zeroed, by the log2 of their capacity.
	free   []*T
	blocks [][][]T
}

// New returns a zeroed record: the last one handed back, or the next of
// the newest chunk.
func (s *Slab[T]) New() *T {
	if n := len(s.free); n > 0 {
		x := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return x
	}
	return &s.Block(1)[0]
}

// Put zeroes x, a record New returned, and keeps it for the next New.
func (s *Slab[T]) Put(x *T) {
	var zero T
	*x = zero
	s.free = append(s.free, x)
}

// Idle returns how many records have been handed back and not retaken.
func (s *Slab[T]) Idle() int { return len(s.free) }

// Block returns n contiguous zeroed records as a slice of that length
// and capacity: a block of that capacity handed back earlier, the next
// n of the newest chunk, or — when they come to more than blockBytes —
// an array of its own.
func (s *Slab[T]) Block(n int) []T {
	var zero T
	size := max(1, int(unsafe.Sizeof(zero)))
	if n > 1 && n*size > blockBytes {
		return make([]T, n)
	}
	if c := class(n); c < len(s.blocks) && n == 1<<c {
		if k := len(s.blocks[c]); k > 0 {
			b := s.blocks[c][k-1]
			s.blocks[c][k-1] = nil
			s.blocks[c] = s.blocks[c][:k-1]
			return b
		}
	}
	if n > len(s.tail) {
		length := max(s.chunk, firstChunk)
		s.chunk = min(2*length, max(firstChunk, chunkBytes/size))
		if n >= length {
			return make([]T, n) // the newest chunk keeps its tail
		}
		// What is left of the old chunk is given up: fewer than n
		// records of a chunk many times that long.
		s.tail = make([]T, length)
	}
	b := s.tail[:n:n]
	s.tail = s.tail[n:]
	return b
}

// PutBlock zeroes b, a block whose capacity is a power of two, and keeps
// it for the next Block of that length. A block of any other capacity is
// only zeroed — its records stay carved for the life of the slab — and
// one of more than blockBytes is left to the collector.
func (s *Slab[T]) PutBlock(b []T) {
	b = b[:cap(b)]
	clear(b)
	c := class(len(b))
	if len(b) == 0 || len(b) != 1<<c || len(b) > 1 && len(b)*int(unsafe.Sizeof(b[0])) > blockBytes {
		return
	}
	for len(s.blocks) <= c {
		s.blocks = append(s.blocks, nil)
	}
	s.blocks[c] = append(s.blocks[c], b)
}

// class returns the least c with n <= 1<<c.
func class(n int) int { return bits.Len(uint(n - 1)) }
