package pagefile

import (
	"testing"
	"testing/quick"
	"time"

	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
)

// diskIO is a step that performs one disk access through ioOp: a write
// stores *stamp, a read leaves what it found there.
func diskIO(d *Disk, write bool, id PageID, stamp *uint64) simtest.Step {
	var op ioOp
	op.start(d, write, id, *stamp)
	return func(t *sim.Task) bool {
		if !op.step(t) {
			return false
		}
		*stamp = op.stamp
		return true
	}
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

// put is a step that installs stamp as page id through a PutOp.
func put(bp *BufferPool, id PageID, stamp uint64, err *error) simtest.Step {
	var op PutOp
	op.Init(bp, id, stamp)
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

func TestDiskReadWriteRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	in, out := uint64(0x0123456789ABCDEF), uint64(0)
	run(t, env, diskIO(d, true, 3, &in), diskIO(d, false, 3, &out))
	if out != in {
		t.Errorf("read back %#x, want %#x", out, in)
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", d.Reads, d.Writes)
	}
	if env.Now() != 24*time.Millisecond {
		t.Fatalf("elapsed = %v, want 24ms", env.Now())
	}
}

func TestDiskUnwrittenPageReadsZero(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	got := uint64(0xFF)
	run(t, env, diskIO(d, false, 0, &got))
	if got != 0 {
		t.Errorf("unwritten page read %#x, want 0", got)
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
		put(bp, -1, 1, &werr))
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
			diskIO(d, false, PageID(i), new(uint64)),
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
	if bp.Evictions != 1 {
		t.Fatalf("evictions = %d", bp.Evictions)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 1)
	var f *Frame
	run(t, env,
		get(t, bp, 5, &f),
		do(func(*sim.Task) {
			f.Stamp = 0xAB
			bp.Unpin(f, true)
		}),
		// Evict page 5 by loading another page, never written: the
		// re-keyed frame must not keep its victim's stamp.
		get(t, bp, 6, &f),
		do(func(*sim.Task) {
			if f.Stamp != 0 {
				t.Errorf("never-written page read %#x through a re-keyed frame, want 0", f.Stamp)
			}
			bp.Unpin(f, false)
		}),
		// Re-read 5 from disk: modification must have survived.
		get(t, bp, 5, &f),
		do(func(*sim.Task) {
			if f.Stamp != 0xAB {
				t.Error("dirty page lost on eviction")
			}
			bp.Unpin(f, false)
		}))
	if bp.DirtyWrites != 1 {
		t.Fatalf("dirty writes = %d", bp.DirtyWrites)
	}
	if d.Writes != 1 {
		t.Fatalf("disk writes = %d", d.Writes)
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
	d.pages[7] = 0xC0FFEE
	done := 0
	for i := 0; i < 5; i++ {
		var f *Frame
		simtest.Spawn(env,
			get(t, bp, 7, &f),
			do(func(*sim.Task) {
				// The four that waited on the loading frame see what
				// the one read brought in.
				if f.Stamp != 0xC0FFEE {
					t.Errorf("getter %d saw stamp %#x, want 0xC0FFEE", done, f.Stamp)
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
// pages), reports the configured capacity, and still serves every page
// without evicting.
func TestPoolLargerThanDiskSizesForDisk(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 3, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 1000)
	if bp.Capacity() != 1000 {
		t.Errorf("Capacity() = %d, want the configured 1000", bp.Capacity())
	}
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
	if bp.Misses != 3 || bp.Hits != 3 || bp.Evictions != 0 {
		t.Errorf("misses=%d hits=%d evictions=%d, want 3/3/0", bp.Misses, bp.Hits, bp.Evictions)
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

// Property: after any sequence of writes through a pool smaller than
// the page set, every page reads back the last value written to it —
// whether it is still resident or was written back on eviction and
// re-read (write-back preserves data).
func TestWriteBackConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv()
		d := NewDisk(env, 8, DiskConfig{ReadTime: time.Millisecond, WriteTime: time.Millisecond})
		bp := NewBufferPool(env, d, 3)
		want := map[PageID]uint64{}
		pass := true
		var fr *Frame
		var err error
		var steps []simtest.Step
		for i, op := range ops {
			id, v := PageID(op%8), uint64(i+1)
			want[id] = v
			steps = append(steps, getErr(bp, id, &fr, &err), do(func(*sim.Task) {
				if err != nil {
					pass = false
					return
				}
				fr.Stamp = v
				bp.Unpin(fr, true)
			}))
		}
		for id, v := range want {
			steps = append(steps, getErr(bp, id, &fr, &err), do(func(*sim.Task) {
				if err != nil || fr.Stamp != v {
					pass = false
					return
				}
				bp.Unpin(fr, false)
			}))
		}
		simtest.Spawn(env, steps...)
		env.RunAll()
		// Whatever eviction wrote back must match too.
		for id, v := range want {
			if !bp.Contains(id) && d.pages[id] != v {
				pass = false
			}
		}
		return pass && bp.Pinned() == 0
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
		put(bp, 3, 0x42, &err),
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
			if f.Stamp != 0x42 {
				t.Error("Put data lost")
			}
			if !f.Dirty() {
				t.Error("Put page not dirty")
			}
			bp.Unpin(f, false)
		}))
}

func TestPutOverwritesResidentPage(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var f *Frame
	var err error
	run(t, env,
		get(t, bp, 1, &f),
		do(func(*sim.Task) {
			f.Stamp = 1
			bp.Unpin(f, true)
		}),
		put(bp, 1, 9, &err),
		get(t, bp, 1, &f),
		do(func(*sim.Task) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			if f.Stamp != 9 {
				t.Errorf("resident overwrite lost: %d", f.Stamp)
			}
			bp.Unpin(f, false)
		}))
}

func TestPutRejectsBadPage(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var err error
	run(t, env, put(bp, 99, 1, &err))
	if err == nil {
		t.Error("out-of-range Put accepted")
	}
}

func TestDiskResourceShared(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DiskConfig{ReadTime: 10 * time.Millisecond, WriteTime: 10 * time.Millisecond})
	var t2 time.Duration
	simtest.Spawn(env, diskIO(d, false, 0, new(uint64)))
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
