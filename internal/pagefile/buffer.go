package pagefile

import "siteselect/internal/sim"

// Frame is a buffer-pool slot holding one page. Callers pin a frame with
// a GetOp, read or modify Stamp, and release it with Unpin.
type Frame struct {
	id PageID
	// Stamp is the page's content. The model charges a page's 2 KB in
	// transfer and disk time; the only content any site ever stores in
	// one is the version of the object it holds, so that is all a frame
	// (and a disk page) carries.
	Stamp uint64
	// loaded wakes the getters of a page being read; it lives in the frame.
	loaded sim.Signal
	// Intrusive LRU links: the frame is its own list node, so pin/unpin
	// cycles and evictions allocate nothing.
	prev, next *Frame
	pins       int32
	dirty      bool
	loading    bool
	inLRU      bool
}

// ID returns the page held by the frame.
func (f *Frame) ID() PageID { return f.id }

// Dirty reports whether the frame has unwritten modifications.
func (f *Frame) Dirty() bool { return f.dirty }

// Pins returns the current pin count.
func (f *Frame) Pins() int { return int(f.pins) }

// BufferPool caches pages of a Disk in a fixed number of frames with LRU
// replacement. Dirty pages are written back when evicted. The operations
// that can wait on the disk or on a free frame (GetOp, PutOp, MultiGetOp)
// are resumable ops stepped by the calling sim.Machine.
type BufferPool struct {
	env  *sim.Env
	disk *Disk
	cap  int
	// frames indexes the resident (or loading) pages by page id, as the
	// disk indexes its pages; nil where the page is not in the pool.
	frames []*Frame
	// slab backs the pool's frames: one contiguous allocation newFrame
	// carves from, so the working set stays cache-adjacent and the GC
	// sees one object. It holds min(cap, disk pages) frames — a pool
	// can never fill more than the disk has pages.
	slab      []Frame
	allocated int
	// lruFront/lruBack hold unpinned frames; front = most recent.
	lruFront, lruBack *Frame
	free              *sim.Signal

	// Hits and Misses count GetOp outcomes.
	Hits   int64
	Misses int64
	// Evictions counts frames replaced; DirtyWrites counts write-backs.
	Evictions   int64
	DirtyWrites int64
}

// NewBufferPool returns a pool of capacity frames over disk.
func NewBufferPool(env *sim.Env, disk *Disk, capacity int) *BufferPool {
	if capacity <= 0 {
		panic("pagefile: buffer pool capacity must be positive")
	}
	n := min(capacity, disk.NumPages())
	return &BufferPool{
		env:    env,
		disk:   disk,
		cap:    capacity,
		frames: make([]*Frame, disk.NumPages()),
		slab:   make([]Frame, n),
		free:   sim.NewSignal(env),
	}
}

// Capacity returns the configured number of frames.
func (bp *BufferPool) Capacity() int { return bp.cap }

// newFrame carves the next frame slot out of the pool's slab, pinned
// and loading. Callers must have checked bp.allocated < len(bp.slab).
func (bp *BufferPool) newFrame(id PageID) *Frame {
	f := &bp.slab[bp.allocated]
	bp.allocated++
	f.id = id
	f.pins = 1
	f.loading = true
	f.loaded.Init(bp.env)
	return f
}

// Pinned returns the number of frames with at least one pin. A quiescent
// pool has none; a nonzero count after every transaction has finished is
// a leaked pin.
func (bp *BufferPool) Pinned() int {
	n := 0
	for i := range bp.slab[:bp.allocated] {
		if bp.slab[i].pins > 0 {
			n++
		}
	}
	return n
}

// Contains reports whether page id is resident (pinned or not), without
// touching LRU state. No page beyond the disk's is.
func (bp *BufferPool) Contains(id PageID) bool {
	if uint(id) >= uint(len(bp.frames)) {
		return false
	}
	f := bp.frames[id]
	return f != nil && !f.loading
}

func (bp *BufferPool) lruPushFront(f *Frame) {
	f.prev = nil
	f.next = bp.lruFront
	if bp.lruFront != nil {
		bp.lruFront.prev = f
	} else {
		bp.lruBack = f
	}
	bp.lruFront = f
	f.inLRU = true
}

func (bp *BufferPool) lruRemove(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		bp.lruFront = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		bp.lruBack = f.prev
	}
	f.prev, f.next = nil, nil
	f.inLRU = false
}

// touch moves an unpinned frame to the most-recently-used position.
func (bp *BufferPool) touch(f *Frame) {
	if f.inLRU && bp.lruFront != f {
		bp.lruRemove(f)
		bp.lruPushFront(f)
	}
}

func (bp *BufferPool) pin(f *Frame) {
	f.pins++
	if f.inLRU {
		bp.lruRemove(f)
	}
}

// Unpin releases one pin on frame f, marking it dirty when the caller
// modified it. When the pin count reaches zero the frame becomes
// evictable (most-recently-used position).
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	if f.pins <= 0 {
		panic("pagefile: Unpin of unpinned frame")
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins == 0 {
		bp.lruPushFront(f)
		bp.free.Broadcast()
	}
}

// HitRate returns the fraction of pins served without disk I/O.
func (bp *BufferPool) HitRate() float64 {
	total := bp.Hits + bp.Misses
	if total == 0 {
		return 0
	}
	return float64(bp.Hits) / float64(total)
}
