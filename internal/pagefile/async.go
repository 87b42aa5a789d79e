package pagefile

import "siteselect/internal/sim"

// The pool and disk operations that take virtual time. Each is a
// resumable op embedded in the calling sim.Machine: Init (or start) arms
// it, and Step is called from every Resume until it reports done; a
// false return means the task parked on exactly one primitive (the disk
// arm, the access timer, a loading frame's signal, or the pool's free
// signal).

// ioOp is one disk access: acquire the arm, hold it for the access
// time, release, count, move the stamp. stamp is what a write stores
// and, once step reports done, what a read found; pages never written
// read as zero.
type ioOp struct {
	d     *Disk
	id    PageID
	stamp uint64
	write bool
	pc    uint8
}

const (
	ioAcquire uint8 = iota
	ioSleep
	ioFinish
)

func (o *ioOp) start(d *Disk, write bool, id PageID, stamp uint64) {
	o.d, o.id, o.stamp, o.write, o.pc = d, id, stamp, write, ioAcquire
}

// step advances the access; false means the task parked and step must
// run again on the next resume.
func (o *ioOp) step(t *sim.Task) bool {
	for {
		switch o.pc {
		case ioAcquire:
			o.pc = ioSleep
			if !t.Acquire(o.d.arm, 0) {
				return false
			}
		case ioSleep:
			o.pc = ioFinish
			if o.write {
				t.Sleep(o.d.cfg.WriteTime)
			} else {
				t.Sleep(o.d.cfg.ReadTime)
			}
			return false
		default: // ioFinish
			d := o.d
			d.arm.Release()
			if o.write {
				d.Writes++
				d.pages[o.id] = o.stamp
			} else {
				d.Reads++
				o.stamp = d.pages[o.id]
			}
			return true
		}
	}
}

// allocAction is what allocate decided.
type allocAction uint8

const (
	// allocReady: frame claimed, no write-back needed.
	allocReady allocAction = iota
	// allocWriteback: frame claimed; the victim write-back was started
	// in the caller's ioOp and must be stepped to completion.
	allocWriteback
	// allocWaitFree: every frame is pinned; the task parked on the
	// pool's free signal and must retry the lookup after resuming.
	allocWaitFree
)

// allocate finds a frame for id, evicting the LRU unpinned page if the
// pool is full. It returns a pinned, loading frame; when the victim was
// dirty its write-back has been started in io and must be stepped to
// completion before the frame is used.
func (bp *BufferPool) allocate(t *sim.Task, io *ioOp, id PageID) (*Frame, allocAction) {
	if bp.allocated < len(bp.slab) {
		f := bp.newFrame(id)
		bp.frames[id] = f
		return f, allocReady
	}
	vf := bp.lruBack
	if vf == nil {
		// Every frame is pinned: wait for an Unpin, then retry from the
		// lookup so the page-resident check runs again.
		t.Wait(bp.free)
		return nil, allocWaitFree
	}
	vid := vf.id
	bp.lruRemove(vf)
	bp.Evictions++

	// Re-key the victim frame in place: it is unpinned, so it is not
	// loading and its loaded signal has no waiters — the frame and its
	// signal are safe to reuse. Marking it loading first makes other
	// getters of id wait rather than double-read; the write-back and
	// read that follow park, so the index must already reflect the claim.
	bp.frames[vid] = nil
	wasDirty := vf.dirty
	vf.id = id
	vf.pins = 1
	vf.dirty = false
	vf.loading = true
	bp.frames[id] = vf
	if wasDirty {
		bp.DirtyWrites++
		io.start(bp.disk, true, vid, vf.Stamp)
		return vf, allocWriteback
	}
	return vf, allocReady
}

// GetOp pins a page, reading it from disk on a miss. Concurrent getters
// of a loading page wait for the single read, and the op waits when
// every frame is pinned until one is unpinned. After Step reports done
// the pinned frame is available from Frame.
type GetOp struct {
	bp *BufferPool
	id PageID
	f  *Frame
	io ioOp
	pc uint8
}

const (
	gpLookup uint8 = iota
	gpEvictWrite
	gpMiss
	gpRead
)

// Init arms the op to pin page id from bp.
func (g *GetOp) Init(bp *BufferPool, id PageID) {
	g.bp, g.id, g.f, g.pc = bp, id, nil, gpLookup
}

// Frame returns the pinned frame after Step reported done.
func (g *GetOp) Frame() *Frame { return g.f }

// Step advances the pin; false means the task parked and Step must run
// again on the next resume.
func (g *GetOp) Step(t *sim.Task) (bool, error) {
	bp := g.bp
	for {
		switch g.pc {
		case gpLookup:
			if err := bp.disk.check(g.id); err != nil {
				return true, err
			}
			if f := bp.frames[g.id]; f != nil {
				if f.loading {
					t.Wait(&f.loaded)
					return false, nil // frame may be re-keyed; recheck
				}
				bp.Hits++
				bp.pin(f)
				g.f = f
				return true, nil
			}
			f, act := bp.allocate(t, &g.io, g.id)
			if act == allocWaitFree {
				return false, nil // lost a race while parked; retry lookup
			}
			g.f = f
			if act == allocWriteback {
				g.pc = gpEvictWrite
			} else {
				g.pc = gpMiss
			}
		case gpEvictWrite:
			if !g.io.step(t) {
				return false, nil
			}
			g.pc = gpMiss
		case gpMiss:
			bp.Misses++
			g.io.start(bp.disk, false, g.id, 0)
			g.pc = gpRead
		default: // gpRead
			if !g.io.step(t) {
				return false, nil
			}
			g.f.Stamp = g.io.stamp
			g.f.loading = false
			g.f.loaded.Broadcast()
			return true, nil
		}
	}
}

// PutOp installs stamp as the current contents of a page without
// reading the old contents from disk (used when a client returns a
// modified object: the server has the authoritative new copy in hand).
// The page becomes resident and dirty; eviction writes it back. A full
// pool evicts (and possibly writes back) a victim first.
type PutOp struct {
	bp    *BufferPool
	id    PageID
	stamp uint64
	f     *Frame
	io    ioOp
	pc    uint8
}

const (
	ppLookup uint8 = iota
	ppEvictWrite
	ppInstall
)

// Init arms the op to install stamp as page id in bp.
func (o *PutOp) Init(bp *BufferPool, id PageID, stamp uint64) {
	o.bp, o.id, o.stamp, o.f, o.pc = bp, id, stamp, nil, ppLookup
}

// Step advances the install; false means the task parked and Step must
// run again on the next resume.
func (o *PutOp) Step(t *sim.Task) (bool, error) {
	bp := o.bp
	for {
		switch o.pc {
		case ppLookup:
			if err := bp.disk.check(o.id); err != nil {
				return true, err
			}
			if f := bp.frames[o.id]; f != nil {
				if f.loading {
					t.Wait(&f.loaded)
					return false, nil
				}
				f.Stamp = o.stamp
				f.dirty = true
				bp.touch(f)
				return true, nil
			}
			f, act := bp.allocate(t, &o.io, o.id)
			if act == allocWaitFree {
				return false, nil
			}
			o.f = f
			if act == allocWriteback {
				o.pc = ppEvictWrite
			} else {
				o.pc = ppInstall
			}
		case ppEvictWrite:
			if !o.io.step(t) {
				return false, nil
			}
			o.pc = ppInstall
		default: // ppInstall
			f := o.f
			f.Stamp = o.stamp
			f.dirty = true
			f.loading = false
			f.loaded.Broadcast()
			bp.Unpin(f, true)
			return true, nil
		}
	}
}

// MultiGetOp pins a whole batch of pages through the pool in sequence,
// unpinning each frame as soon as its read lands. It is the read half
// of a batched object ship (Config.BatchWindow > 0): one machine walks
// every page a destination's coalesced grants need, so requests for the
// same page in one batch share a single disk read — the first pin
// faults the page in, later pins hit the frame (or park on its loading
// signal), and the pool's LRU keeps it resident across the walk.
type MultiGetOp struct {
	bp    *BufferPool
	pages []PageID
	idx   int
	inGet bool
	get   GetOp
}

// Init arms the op to pin each page of pages from bp, in order. The
// pages slice is read as the op advances, so it must stay valid until
// Step reports done.
func (o *MultiGetOp) Init(bp *BufferPool, pages []PageID) {
	o.bp, o.pages, o.idx, o.inGet = bp, pages, 0, false
}

// Step advances the walk; false means the task parked and Step must run
// again on the next resume. When it reports done every page has been
// read through the pool (and unpinned again).
func (o *MultiGetOp) Step(t *sim.Task) (bool, error) {
	for o.idx < len(o.pages) {
		if !o.inGet {
			o.get.Init(o.bp, o.pages[o.idx])
			o.inGet = true
		}
		done, err := o.get.Step(t)
		if !done {
			return false, nil
		}
		if err != nil {
			return true, err
		}
		o.bp.Unpin(o.get.Frame(), false)
		o.inGet = false
		o.idx++
	}
	o.pages = nil
	return true, nil
}
