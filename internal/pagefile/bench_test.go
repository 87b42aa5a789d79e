package pagefile

import (
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
)

// The pool's promises, pinned: a frame is a few words (a pool is sized
// in frames, the scale tier's in hundreds of thousands), and a
// steady-state pin — hit, or miss with eviction and write-back —
// allocates nothing, because a victim's frame and signal are re-keyed
// in place.

func TestFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got > 64 {
		t.Errorf("unsafe.Sizeof(Frame) = %d B, ceiling 64 B (a page body is an 8-byte stamp, not a buffer)", got)
	}
}

// cycle returns a step that pins page i%pages for i = 0, 1, 2, …, n-1
// (forever when n < 0), unpinning each at once and marking every other
// one dirty.
func cycle(bp *BufferPool, pages, n int) simtest.Step {
	var op GetOp
	i, inGet := 0, false
	return func(t *sim.Task) bool {
		for n < 0 || i < n {
			if !inGet {
				op.Init(bp, PageID(i%pages))
				inGet = true
			}
			done, err := op.Step(t)
			if !done {
				return false
			}
			if err != nil {
				panic(err)
			}
			bp.Unpin(op.Frame(), i%2 == 0)
			inGet = false
			i++
		}
		return true
	}
}

var benchDisk = DiskConfig{ReadTime: time.Millisecond, WriteTime: time.Millisecond}

func TestGetHitNoAllocs(t *testing.T) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, NewDisk(env, 8, benchDisk), 8)
	simtest.Spawn(env, cycle(bp, 8, 8)) // fault every page in
	env.RunAll()
	// Hits never park, so the machine sleeps between rounds of 64 to
	// hand the loop back to AllocsPerRun.
	var op GetOp
	simtest.Spawn(env, func(task *sim.Task) bool {
		for i := 0; i < 64; i++ {
			op.Init(bp, PageID(i%8))
			if done, err := op.Step(task); !done || err != nil {
				t.Errorf("pin of a resident page: done=%v err=%v", done, err)
			}
			bp.Unpin(op.Frame(), false)
		}
		task.Sleep(time.Millisecond)
		return false
	})
	defer env.Close()
	env.Run(env.Now() + time.Millisecond)
	hits := bp.Hits
	allocs := testing.AllocsPerRun(100, func() { env.Run(env.Now() + time.Millisecond) })
	if bp.Hits-hits < 64*100 || bp.Misses != 8 {
		t.Fatalf("hits %d, misses %d: the loop is not hitting", bp.Hits-hits, bp.Misses)
	}
	if allocs != 0 {
		t.Fatalf("a round of 64 buffer hits allocates %.1f objects, want 0", allocs)
	}
}

func TestGetMissEvictNoAllocs(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 64, benchDisk)
	bp := NewBufferPool(env, d, 8)
	simtest.Spawn(env, cycle(bp, 64, -1))
	defer env.Close()
	period := 100 * time.Millisecond
	env.Run(period) // fill the pool; every pin from here on evicts
	misses, writes := bp.Misses, d.Writes
	allocs := testing.AllocsPerRun(100, func() { env.Run(env.Now() + period) })
	if bp.Misses-misses < 1000 || d.Writes-writes < 500 {
		t.Fatalf("misses %d, write-backs %d in 101 periods: the loop is not evicting", bp.Misses-misses, d.Writes-writes)
	}
	if allocs != 0 {
		t.Fatalf("a period of evicting pins allocates %.1f objects, want 0", allocs)
	}
}

func BenchmarkGetHit(b *testing.B) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, NewDisk(env, 64, benchDisk), 64)
	simtest.Spawn(env, cycle(bp, 64, 64))
	env.RunAll()
	simtest.Spawn(env, cycle(bp, 64, b.N))
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}

// BenchmarkGetMissEvict is a pin that finds the pool full: evict the
// LRU frame, write it back if dirty (every other one is), read the page.
func BenchmarkGetMissEvict(b *testing.B) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, NewDisk(env, 64, benchDisk), 8)
	simtest.Spawn(env, cycle(bp, 64, 8))
	env.RunAll()
	simtest.Spawn(env, cycle(bp, 64, b.N))
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}

// BenchmarkMultiGet walks batches of eight pages, two of them repeats,
// through a pool that holds them all: the read half of a batched ship.
func BenchmarkMultiGet(b *testing.B) {
	env := sim.NewEnv()
	bp := NewBufferPool(env, NewDisk(env, 64, benchDisk), 64)
	pages := []PageID{3, 9, 3, 17, 25, 9, 33, 41}
	var op MultiGetOp
	i, inOp := 0, false
	simtest.Spawn(env, func(t *sim.Task) bool {
		for i < b.N {
			if !inOp {
				op.Init(bp, pages)
				inOp = true
			}
			done, err := op.Step(t)
			if !done {
				return false
			}
			if err != nil {
				panic(err)
			}
			inOp = false
			i++
		}
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}
