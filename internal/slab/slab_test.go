package slab

import (
	"testing"
	"unsafe"
)

// rec is a 64-byte record with a pointer in it, like the ones the
// system's slabs carve.
type rec struct {
	id   int
	next *rec
	pad  [6]int
}

// contiguous reports whether b is the record after a in one array.
func contiguous(a, b *rec) bool {
	return uintptr(unsafe.Pointer(b))-uintptr(unsafe.Pointer(a)) == unsafe.Sizeof(rec{})
}

// TestChunksGrowThenCap: a slab's first chunk is a few records, each
// next one twice the last, up to the most that fit in chunkBytes — so a
// lone table pays for a handful and a population for one array per
// couple of hundred.
func TestChunksGrowThenCap(t *testing.T) {
	var s Slab[rec]
	limit := chunkBytes / int(unsafe.Sizeof(rec{}))
	var runs []int // lengths of the runs of adjacent records, i.e. the chunks
	prev, run := s.New(), 1
	for i := 1; i < 4*limit; i++ {
		x := s.New()
		if contiguous(prev, x) {
			run++
		} else {
			runs = append(runs, run)
			run = 1
		}
		prev = x
	}
	want := firstChunk
	for i, got := range runs {
		if got != want {
			t.Fatalf("chunk %d holds %d records, want %d (chunks %v)", i, got, want, runs)
		}
		want = min(2*want, limit)
	}
	if len(runs) < 3 || runs[len(runs)-1] != limit || runs[len(runs)-2] != limit {
		t.Fatalf("chunks %v never settle at the cap of %d", runs, limit)
	}
}

// TestBlocks: a block is contiguous and exactly as long as asked; one
// longer than blockBytes is an array of its own and leaves the chunk
// being carved alone; a power-of-two block handed back is the next one
// of that length taken, and a long one handed back is not kept.
func TestBlocks(t *testing.T) {
	var s Slab[int]
	a := s.New()
	long := s.Block(blockBytes) // that many records: eight times the bound in bytes
	if len(long) != blockBytes || cap(long) != blockBytes {
		t.Fatalf("long block has len %d cap %d, want %d", len(long), cap(long), blockBytes)
	}
	if b := s.New(); uintptr(unsafe.Pointer(b))-uintptr(unsafe.Pointer(a)) != unsafe.Sizeof(*a) {
		t.Error("a long block broke into the chunk being carved")
	}
	b8 := s.Block(8)
	if len(b8) != 8 || cap(b8) != 8 {
		t.Fatalf("block of 8 has len %d cap %d", len(b8), cap(b8))
	}
	b8[3] = 7
	s.PutBlock(b8[:2]) // a shortened view hands the whole block back
	if again := s.Block(8); &again[0] != &b8[0] || again[3] != 0 {
		t.Errorf("block of 8 handed back was not the next one taken, zeroed: %v", again)
	}
	s.PutBlock(long)
	if again := s.Block(blockBytes); &again[0] == &long[0] {
		t.Error("a block longer than blockBytes was kept")
	}
	if got := s.Block(0); len(got) != 0 {
		t.Errorf("Block(0) has %d records", len(got))
	}
}

// TestRecordsComeBackZeroed: Put zeroes — what a record pointed at is
// free to go at once — and the record handed back last is the next one
// taken.
func TestRecordsComeBackZeroed(t *testing.T) {
	var s Slab[rec]
	x, y := s.New(), s.New()
	*x = rec{id: 1, next: y, pad: [6]int{5: 9}}
	*y = rec{id: 2}
	s.Put(y)
	s.Put(x)
	if *x != (rec{}) || *y != (rec{}) {
		t.Fatalf("records handed back read %+v %+v, want zeroed", *x, *y)
	}
	if got := s.New(); got != x {
		t.Error("New did not take the record handed back last")
	}
	if got := s.New(); got != y {
		t.Error("New did not take the remaining idle record")
	}
	if got := s.New(); got == x || got == y {
		t.Error("New took a record that is in use")
	}
}

// TestAllocsAmortised: carving costs the allocator one object per chunk
// — under a twentieth of an allocation a record once the chunks have
// grown — and a steady take-and-hand-back round none at all.
func TestAllocsAmortised(t *testing.T) {
	var s Slab[rec]
	const records = 10_000
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < records; i++ {
			s.New()
		}
	}); n/records >= 0.05 {
		t.Errorf("%v allocations for %d records: %.3f a record, want under 0.05", n, records, n/records)
	}
	var held [64]*rec
	round := func() {
		for i := range held {
			held[i] = s.New()
		}
		b := s.Block(4)
		for _, x := range held {
			s.Put(x)
		}
		s.PutBlock(b)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a warmed take-and-hand-back round allocates %v, want 0", n)
	}
}

// TestInsertGrowsThroughBlocks: a list that starts in its record's own
// array moves, when full, to a block of twice the capacity; the block it
// outgrows goes back to the stock and is the next of its size taken, the
// record's own array is never handed back, and the order is kept.
func TestInsertGrowsThroughBlocks(t *testing.T) {
	var s Slab[int]
	var own [2]int
	list := own[:0]
	var outgrown []int // the four-element block, once the list has left it
	for x := 9; x >= 0; x-- {
		if cap(list) == 4 {
			outgrown = list
		}
		list = s.Insert(list, 0, x, len(own)) // at the front: ascending in the end
	}
	if cap(list) != 16 {
		t.Fatalf("ten elements live in a block of %d, want 16 (2 → 4 → 8 → 16)", cap(list))
	}
	for i, x := range list {
		if x != i {
			t.Fatalf("list = %v, want 0…9 in order", list)
		}
	}
	if b := s.Block(4); &b[0] != &outgrown[:1][0] {
		t.Error("the outgrown four-element block was not the next one of its size taken")
	}
	if b := s.Block(2); &b[0] == &own[0] {
		t.Error("the record's own array was handed to the stock")
	}
	s.Drop(own[:0], len(own)) // a list still in its record: nothing to hand back
	s.Drop(list, len(own))
	if b := s.Block(16); &b[0] != &list[0] || b[3] != 0 {
		t.Error("a dropped block was not the next one of its size taken, zeroed")
	}
}

// TestKeepHandsBackAsLeft: a record handed back with Keep is the next
// one taken, exactly as its owner left it — the vector it emptied still
// has its array — where Put hands back a zeroed one; the two interleave
// on one free list, last in first out; and with the list empty the next
// record is a fresh one, zero.
func TestKeepHandsBackAsLeft(t *testing.T) {
	type machine struct {
		site *int
		buf  []int
	}
	var s Slab[machine]
	site := 7
	a, b, c := s.New(), s.New(), s.New()
	for _, m := range []*machine{a, b, c} {
		m.site, m.buf = &site, append(m.buf, 1, 2, 3)
	}
	arrays := []*int{&a.buf[0], &b.buf[0], &c.buf[0]}

	a.site, a.buf = nil, a.buf[:0] // the owner's reset
	s.Keep(a)
	s.Put(b)
	c.buf = c.buf[:0] // Keep does not reset: what the owner leaves stays
	s.Keep(c)

	if x := s.New(); x != c || x.site != &site || len(x.buf) != 0 || &x.buf[:1][0] != arrays[2] {
		t.Errorf("kept record came back as %+v, want the third as left (site kept, array kept)", *x)
	}
	if x := s.New(); x != b || x.site != nil || x.buf != nil {
		t.Errorf("put record came back as %+v, want the second, zeroed", *x)
	}
	if x := s.New(); x != a || x.site != nil || len(x.buf) != 0 || cap(x.buf) < 3 || &x.buf[:1][0] != arrays[0] {
		t.Errorf("kept record came back as %+v, want the first, reset with its array", *x)
	}
	if x := s.New(); x == a || x == b || x == c || x.site != nil || x.buf != nil {
		t.Errorf("with nothing handed back New returned %+v, want a fresh zero record", *x)
	}
	if n := testing.AllocsPerRun(100, func() { s.Keep(s.New()) }); n != 0 {
		t.Errorf("New and Keep of a warm slab allocate %v, want 0", n)
	}
}
