package sim

import (
	"testing"
	"time"
	"unsafe"
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
