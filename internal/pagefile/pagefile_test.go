package pagefile

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
)

// diskIO is a step that performs one disk access through ioOp.
func diskIO(d *Disk, write bool) simtest.Step {
	var op ioOp
	op.start(d, write)
	return op.step
}

// getErr is a step that pins page id through a GetOp, storing the frame
// in *f and the outcome in *err.
func getErr(bp *BufferPool, id PageID, f **Frame, err *error) simtest.Step {
	var op GetOp
	op.Init(bp, id)
	return func(t *sim.Task) bool {
		done, e := op.Step(t)
		if done {
			*f, *err = op.Frame(), e
		}
		return done
	}
}

// get is getErr for pins that must succeed.
func get(t *testing.T, bp *BufferPool, id PageID, f **Frame) simtest.Step {
	var err error
	inner := getErr(bp, id, f, &err)
	return func(task *sim.Task) bool {
		if !inner(task) {
			return false
		}
		if err != nil {
			t.Errorf("get %d: %v", id, err)
		}
		return true
	}
}

// put is a step that installs page id through a PutOp.
func put(bp *BufferPool, id PageID, err *error) simtest.Step {
	var op PutOp
	op.Init(bp, id)
	return func(t *sim.Task) bool {
		done, e := op.Step(t)
		if done {
			*err = e
		}
		return done
	}
}

// do wraps park-free test code as a step.
func do(fn func(t *sim.Task)) simtest.Step {
	return func(t *sim.Task) bool { fn(t); return true }
}

func sleep(d time.Duration) simtest.Step {
	return simtest.Park(func(t *sim.Task) bool { t.Sleep(d); return true })
}

// run drives steps as one machine on a fresh env and fails the test if
// they did not all finish.
func run(t *testing.T, env *sim.Env, steps ...simtest.Step) {
	t.Helper()
	done := false
	simtest.Spawn(env, append(steps, do(func(*sim.Task) { done = true }))...)
	env.RunAll()
	if !done {
		t.Fatal("test machine did not finish (deadlock?)")
	}
}

// A write and a read each take one access time and count once.
func TestDiskReadWriteRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	run(t, env, diskIO(d, true), diskIO(d, false))
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", d.Reads, d.Writes)
	}
	if env.Now() != 24*time.Millisecond {
		t.Fatalf("elapsed = %v, want 24ms", env.Now())
	}
}

func TestDiskOutOfRange(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var f *Frame
	var rerr, werr error
	run(t, env,
		getErr(bp, 4, &f, &rerr),
		put(bp, -1, &werr))
	if rerr == nil {
		t.Error("read past end did not fail")
	}
	if werr == nil {
		t.Error("negative write did not fail")
	}
	if d.Reads != 0 || d.Writes != 0 || env.Now() != 0 {
		t.Errorf("out-of-range access reached the device: reads=%d writes=%d t=%v", d.Reads, d.Writes, env.Now())
	}
}

func TestDiskSerializesRequests(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DiskConfig{ReadTime: 10 * time.Millisecond, WriteTime: 10 * time.Millisecond})
	finished := 0
	for i := 0; i < 3; i++ {
		simtest.Spawn(env,
			diskIO(d, false),
			do(func(*sim.Task) { finished++ }))
	}
	env.RunAll()
	if finished != 3 {
		t.Fatalf("finished = %d", finished)
	}
	if env.Now() != 30*time.Millisecond {
		t.Fatalf("3 serialized reads took %v, want 30ms", env.Now())
	}
}

func TestBufferHitIsFree(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DiskConfig{ReadTime: 10 * time.Millisecond, WriteTime: 10 * time.Millisecond})
	bp := NewBufferPool(env, d, 4)
	var f *Frame
	var before time.Duration
	run(t, env,
		get(t, bp, 1, &f),
		do(func(task *sim.Task) {
			bp.Unpin(f, false)
			before = task.Now()
		}),
		get(t, bp, 1, &f),
		do(func(task *sim.Task) {
			if task.Now() != before {
				t.Error("buffer hit took time")
			}
			bp.Unpin(f, false)
		}))
	if bp.Hits != 1 || bp.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", bp.Hits, bp.Misses)
	}
	if bp.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", bp.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var f *Frame
	unpin := do(func(*sim.Task) { bp.Unpin(f, false) })
	run(t, env,
		get(t, bp, 0, &f), unpin,
		get(t, bp, 1, &f), unpin,
		// Touch 0 so 1 becomes LRU.
		get(t, bp, 0, &f), unpin,
		// Loading 2 must evict 1, not 0.
		get(t, bp, 2, &f), unpin)
	if !bp.Contains(0) || bp.Contains(1) || !bp.Contains(2) {
		t.Errorf("residency after eviction: 0=%v 1=%v 2=%v",
			bp.Contains(0), bp.Contains(1), bp.Contains(2))
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 1)
	var f *Frame
	unpin := do(func(*sim.Task) { bp.Unpin(f, false) })
	run(t, env,
		get(t, bp, 5, &f),
		do(func(*sim.Task) { bp.Unpin(f, true) }),
		// Evict page 5 by loading another page: the write-back comes
		// first, and the re-keyed frame must not stay dirty.
		get(t, bp, 6, &f), unpin,
		// Evicting 6, clean, writes nothing; 5 is read back from disk.
		get(t, bp, 5, &f), unpin)
	if d.Writes != 1 || d.Reads != 3 {
		t.Fatalf("disk writes = %d, reads = %d, want 1 and 3", d.Writes, d.Reads)
	}
	if env.Now() != 48*time.Millisecond {
		t.Fatalf("elapsed = %v, want 48ms (three reads, one write-back)", env.Now())
	}
	if bp.Pinned() != 0 {
		t.Fatalf("pinned = %d after every Unpin", bp.Pinned())
	}
}

func TestAllPinnedBlocksUntilUnpin(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 1)
	var f0, f1 *Frame
	gotAt := time.Duration(-1)
	simtest.Spawn(env, // holder
		get(t, bp, 0, &f0),
		sleep(time.Second),
		do(func(*sim.Task) { bp.Unpin(f0, false) }))
	simtest.Spawn(env, // waiter
		sleep(time.Millisecond),
		get(t, bp, 1, &f1),
		do(func(task *sim.Task) {
			gotAt = task.Now()
			bp.Unpin(f1, false)
		}))
	env.Run(500 * time.Millisecond)
	if bp.Pinned() != 1 {
		t.Fatalf("pinned = %d while the holder sleeps, want 1", bp.Pinned())
	}
	env.RunAll()
	if gotAt < time.Second {
		t.Fatalf("waiter got frame at %v, before holder unpinned", gotAt)
	}
}

func TestConcurrentGetSingleRead(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 4)
	done := 0
	for i := 0; i < 5; i++ {
		var f *Frame
		simtest.Spawn(env,
			get(t, bp, 7, &f),
			do(func(task *sim.Task) {
				// The four that waited on the loading frame are let go
				// when the one read lands, not after reads of their own.
				if task.Now() != 12*time.Millisecond {
					t.Errorf("getter %d pinned page 7 at %v, want 12ms", done, task.Now())
				}
				bp.Unpin(f, false)
				done++
			}))
	}
	env.RunAll()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	if d.Reads != 1 {
		t.Fatalf("disk reads = %d, want 1 (shared load)", d.Reads)
	}
	if bp.Misses != 1 || bp.Hits != 4 {
		t.Fatalf("hits=%d misses=%d", bp.Hits, bp.Misses)
	}
}

// A batch naming one page twice shares a single disk read: the first pin
// faults the page in, the second hits the frame.
func TestMultiGetSharesReadOfRepeatedPage(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 4)
	var op MultiGetOp
	op.Init(bp, []PageID{3, 5, 3})
	run(t, env, func(task *sim.Task) bool {
		done, err := op.Step(task)
		if err != nil {
			t.Errorf("multi-get: %v", err)
		}
		return done
	})
	if d.Reads != 2 {
		t.Fatalf("disk reads = %d, want 2 (page 3 read once)", d.Reads)
	}
	if bp.Misses != 2 || bp.Hits != 1 {
		t.Fatalf("hits=%d misses=%d", bp.Hits, bp.Misses)
	}
	if env.Now() != 24*time.Millisecond {
		t.Fatalf("elapsed = %v, want 24ms", env.Now())
	}
	if bp.Pinned() != 0 {
		t.Fatalf("pinned = %d, MultiGetOp must unpin as it goes", bp.Pinned())
	}
}

// A pool configured larger than its disk holds frames for the disk's
// pages only (the 10k scale cell runs a 100 000-frame pool over 20 000
// pages) and still serves every page without evicting.
func TestPoolLargerThanDiskSizesForDisk(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 3, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 1000)
	if len(bp.slab) != 3 {
		t.Errorf("slab holds %d frames over a 3-page disk", len(bp.slab))
	}
	var f *Frame
	unpin := do(func(*sim.Task) { bp.Unpin(f, false) })
	var steps []simtest.Step
	for round := 0; round < 2; round++ {
		for id := PageID(0); id < 3; id++ {
			steps = append(steps, get(t, bp, id, &f), unpin)
		}
	}
	run(t, env, steps...)
	if bp.Misses != 3 || bp.Hits != 3 {
		t.Errorf("misses=%d hits=%d, want 3/3: no eviction", bp.Misses, bp.Hits)
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin did not panic")
		}
	}()
	bp.Unpin(&Frame{}, false)
}

// Property: after any sequence of pins through a pool smaller than the
// page set, each modifying or not, the pool's hits, misses, reads and
// write-backs are those of a reference LRU cache of the same size: a
// page is read on a miss only, and written back exactly when a
// modification of it since its last read is evicted.
func TestWriteBackConsistencyProperty(t *testing.T) {
	const frames = 3
	f := func(ops []uint8) bool {
		env := sim.NewEnv()
		d := NewDisk(env, 8, DiskConfig{ReadTime: time.Millisecond, WriteTime: time.Millisecond})
		bp := NewBufferPool(env, d, frames)
		var lru []PageID // the reference, most recent first
		dirty := map[PageID]bool{}
		var hits, misses, writes int64
		pass := true
		var fr *Frame
		var err error
		var steps []simtest.Step
		for _, op := range ops {
			id, modify := PageID(op%8), op&8 != 0
			if i := slices.Index(lru, id); i >= 0 {
				hits++
				lru = slices.Delete(lru, i, i+1)
			} else {
				misses++
				if len(lru) == frames {
					victim := lru[frames-1]
					lru = lru[:frames-1]
					if dirty[victim] {
						writes++
						delete(dirty, victim)
					}
				}
			}
			lru = slices.Insert(lru, 0, id)
			dirty[id] = dirty[id] || modify
			steps = append(steps, getErr(bp, id, &fr, &err), do(func(*sim.Task) {
				if err != nil {
					pass = false
					return
				}
				bp.Unpin(fr, modify)
			}))
		}
		simtest.Spawn(env, steps...)
		env.RunAll()
		for _, id := range lru {
			pass = pass && bp.Contains(id)
		}
		return pass && bp.Pinned() == 0 && bp.Hits == hits && bp.Misses == misses &&
			d.Reads == misses && d.Writes == writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPutInstallsWithoutRead(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var f *Frame
	var err error
	run(t, env,
		put(bp, 3, &err),
		do(func(*sim.Task) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			// No disk read happened; the page is resident and dirty.
			if d.Reads != 0 {
				t.Errorf("Put read from disk: %d reads", d.Reads)
			}
		}),
		get(t, bp, 3, &f),
		do(func(*sim.Task) {
			if bp.Hits != 1 || bp.Misses != 0 {
				t.Errorf("pin after Put: hits=%d misses=%d, want a hit", bp.Hits, bp.Misses)
			}
			if !f.dirty {
				t.Error("Put page not dirty")
			}
			bp.Unpin(f, false)
		}))
}

// A Put over a resident clean page costs no I/O and leaves the page
// dirty and most recently used: the next eviction takes the other page,
// and the one after writes the put page back.
func TestPutOverwritesResidentPage(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var f *Frame
	var err error
	unpin := do(func(*sim.Task) { bp.Unpin(f, false) })
	run(t, env,
		get(t, bp, 1, &f), unpin,
		get(t, bp, 2, &f), unpin,
		put(bp, 1, &err),
		do(func(*sim.Task) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			if d.Reads != 2 || d.Writes != 0 {
				t.Errorf("resident Put reached the disk: reads=%d writes=%d", d.Reads, d.Writes)
			}
		}),
		get(t, bp, 3, &f), unpin)
	if !bp.Contains(1) || bp.Contains(2) {
		t.Fatalf("residency after eviction: 1=%v 2=%v, want the put page kept", bp.Contains(1), bp.Contains(2))
	}
	if d.Writes != 0 {
		t.Fatalf("clean page 2 written back: %d writes", d.Writes)
	}
	run(t, env, get(t, bp, 4, &f), unpin)
	if bp.Contains(1) || d.Writes != 1 {
		t.Fatalf("evicting the put page: resident=%v writes=%d, want gone and written back", bp.Contains(1), d.Writes)
	}
}

func TestPutRejectsBadPage(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var err error
	run(t, env, put(bp, 99, &err))
	if err == nil {
		t.Error("out-of-range Put accepted")
	}
}

func TestDiskResourceShared(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DiskConfig{ReadTime: 10 * time.Millisecond, WriteTime: 10 * time.Millisecond})
	var t2 time.Duration
	simtest.Spawn(env, diskIO(d, false))
	simtest.Spawn(env,
		// Co-located work on the same spindle waits behind the read.
		simtest.Park(func(task *sim.Task) bool { return !task.Acquire(d.Resource(), 0) }),
		sleep(5*time.Millisecond),
		do(func(task *sim.Task) {
			d.Resource().Release()
			t2 = task.Now()
		}))
	env.RunAll()
	if t2 != 15*time.Millisecond {
		t.Fatalf("shared-arm work finished at %v, want 15ms", t2)
	}
}
