package sim

import (
	"testing"
	"time"
	"unsafe"

	"siteselect/internal/slab"
)

// The kernel promises an allocation-free steady state on its hot paths.
// These tests pin that promise down with AllocsPerRun so a regression
// (a closure creeping back into Sleep, the event pool losing its free
// list, the mailbox ring reverting to append) fails loudly.

func TestScheduleStepNoAllocs(t *testing.T) {
	env := NewEnv()
	fn := func() {}
	// Warm the event pool and heap so capacity growth is behind us.
	for i := 0; i < 8; i++ {
		env.Schedule(0, fn)
	}
	env.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		env.Schedule(0, fn)
		env.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSleepNoAllocs(t *testing.T) {
	env := NewEnv()
	env.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	defer env.Close()
	// Warm: initial dispatch plus a few sleep cycles.
	for i := 0; i < 8; i++ {
		env.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.Step()
	})
	if allocs != 0 {
		t.Fatalf("Sleep resume allocates %.1f objects/op, want 0", allocs)
	}
}

func TestMailboxPutTryGetNoAllocs(t *testing.T) {
	env := NewEnv()
	m := NewMailbox[int](env)
	// Warm the ring.
	for i := 0; i < 8; i++ {
		m.Put(i)
	}
	for {
		if _, ok := m.TryGet(); !ok {
			break
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Put(1)
		m.TryGet()
	})
	if allocs != 0 {
		t.Fatalf("Mailbox Put+TryGet allocates %.1f objects/op, want 0", allocs)
	}
}

// What a parked site's kernel state weighs: every machine embeds a
// Task, and every site owns mailboxes that mostly carry one message at
// a time — the first ring is two entries and doubles from there.
func TestParkedFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got > 152 {
		t.Errorf("unsafe.Sizeof(Task) = %d B, ceiling 152 B", got)
	}
	m := NewMailbox[int](NewEnv())
	if cap(m.buf) != 0 {
		t.Errorf("an unused mailbox holds a ring of %d", cap(m.buf))
	}
	for i, want := range []int{2, 2, 4, 4, 8} {
		m.Put(i)
		if cap(m.buf) != want {
			t.Errorf("ring after %d queued = %d, want %d", i+1, cap(m.buf), want)
		}
	}
	for i := 0; i < 5; i++ {
		if v, ok := m.TryGet(); !ok || v != i {
			t.Fatalf("item %d = %d, %v after growth", i, v, ok)
		}
	}
}

// TestMailboxRingFromSlab: a mailbox on a slab of rings takes its ring
// from the slab with the first Put and gives it back when drained, so a
// drained mailbox — a parked site's — holds no ring, and a warmed cycle
// of Puts and TryGets, through a burst that doubles the ring twice,
// allocates nothing. A ring longer than the slab keeps blocks of stays
// with its mailbox: given back, it would be dropped and regrown.
func TestMailboxRingFromSlab(t *testing.T) {
	env := NewEnv()
	var rings slab.Slab[int]
	var m Mailbox[int]
	m.Init(env, &rings, nil)
	cycle := func() {
		for i := 0; i < 5; i++ {
			m.Put(i)
		}
		for i := 0; i < 5; i++ {
			if v, ok := m.TryGet(); !ok || v != i {
				panic("FIFO order lost across the ring's growth")
			}
		}
		if m.buf != nil {
			panic("a drained mailbox holds its ring")
		}
		m.Put(9)
		m.TryGet()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warmed Put/TryGet cycle on a slab allocates %v per run, want 0", n)
	}
	for i := 0; i < 200; i++ {
		m.Put(i)
	}
	for i := 0; i < 200; i++ {
		m.TryGet()
	}
	if cap(m.buf) != 256 {
		t.Errorf("a drained mailbox holds a ring of %d after a burst of 200, want the 256 it grew", cap(m.buf))
	}
}

// BenchmarkSchedule measures the bare schedule-and-execute cycle: one
// pooled event through the 4-ary heap.
func BenchmarkSchedule(b *testing.B) {
	env := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Schedule(0, fn)
		env.Step()
	}
}

// BenchmarkSleepPingPong measures a full process handoff: the kernel
// resumes a sleeping process, which schedules its next sleep and yields
// back. This is the dominant cycle of every model process.
func BenchmarkSleepPingPong(b *testing.B) {
	env := NewEnv()
	env.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	defer env.Close()
	for i := 0; i < 8; i++ {
		env.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Step()
	}
}
