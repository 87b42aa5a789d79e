package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// Waiters returns the number of tasks waiting on s. It walks the queue:
// a signal is three words in every record that holds one, and only these
// checks ask.
func (s *Signal) Waiters() int {
	n := 0
	for w := s.head; w != nil; w = w.next {
		n++
	}
	return n
}

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(2*time.Second, func() { got = append(got, 2) })
	env.Schedule(1*time.Second, func() { got = append(got, 1) })
	env.Schedule(3*time.Second, func() { got = append(got, 3) })
	env.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", env.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	env := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(time.Second, func() { got = append(got, i) })
	}
	env.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.Schedule(1*time.Second, func() { fired++ })
	env.Schedule(5*time.Second, func() { fired++ })
	env.Run(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if env.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", env.Now())
	}
	env.Run(10 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	env.RunAll()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("canceled timer not Stopped")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	env := NewEnv()
	env.Schedule(time.Second, func() {
		env.Schedule(-time.Minute, func() {
			if env.Now() != time.Second {
				t.Fatalf("negative delay ran at %v", env.Now())
			}
		})
	})
	env.RunAll()
}

func TestAtInPastPanics(t *testing.T) {
	env := NewEnv()
	env.Schedule(time.Second, func() {})
	env.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	env.At(0, func() {})
}

func TestProcSleep(t *testing.T) {
	env := NewEnv()
	var wake time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		wake = p.Now()
	})
	env.RunAll()
	if wake != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", wake)
	}
	if env.Procs() != 0 {
		t.Fatalf("live procs = %d, want 0", env.Procs())
	}
}

func TestProcSleepUntil(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		p.SleepUntil(2 * time.Second)
		order = append(order, "a")
		p.SleepUntil(time.Second) // past: resumes immediately
		order = append(order, "a2")
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "b")
	})
	env.RunAll()
	want := []string{"b", "a", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcSpawnsChild(t *testing.T) {
	env := NewEnv()
	var childRan bool
	env.Go("parent", func(p *Proc) {
		p.Go("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
		p.Sleep(2 * time.Second)
	})
	env.RunAll()
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestCloseUnblocksSleepers(t *testing.T) {
	env := NewEnv()
	cleanups := 0
	for i := 0; i < 5; i++ {
		env.Go("p", func(p *Proc) {
			defer func() { cleanups++ }()
			p.Sleep(time.Hour)
		})
	}
	env.Run(time.Second)
	if env.Procs() != 5 {
		t.Fatalf("live procs = %d, want 5", env.Procs())
	}
	env.Close()
	if env.Procs() != 0 {
		t.Fatalf("after Close live procs = %d, want 0", env.Procs())
	}
	if cleanups != 5 {
		t.Fatalf("cleanups = %d, want 5", cleanups)
	}
}

func TestCloseWithBlockingDefer(t *testing.T) {
	env := NewEnv()
	env.Go("p", func(p *Proc) {
		defer p.Sleep(time.Second) // blocking in defer during shutdown must not hang
		p.Sleep(time.Hour)
	})
	env.Run(time.Millisecond)
	env.Close()
	if env.Procs() != 0 {
		t.Fatal("proc leaked past Close")
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	woken := 0
	for i := 0; i < 3; i++ {
		env.Go("w", func(p *Proc) {
			p.Wait(sig)
			woken++
		})
	}
	env.Go("caster", func(p *Proc) {
		p.Sleep(time.Second)
		sig.Broadcast()
	})
	env.RunAll()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestSignalFireWakesOneFIFO(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		env.Go("w", func(p *Proc) {
			p.Wait(sig)
			order = append(order, i)
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(time.Second)
		sig.Fire()
		p.Sleep(time.Second)
		sig.Fire()
		p.Sleep(time.Second)
		sig.Fire()
	})
	env.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

func TestWaitTimeout(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var gotSignal, gotTimeout bool
	env.Go("timeouter", func(p *Proc) {
		if p.WaitTimeout(sig, time.Second) {
			t.Error("expected timeout, got signal")
		}
		gotTimeout = true
	})
	env.Go("signaled", func(p *Proc) {
		p.Sleep(2 * time.Second) // waits after the broadcast below is scheduled
		if !p.WaitTimeout(sig, 10*time.Second) {
			t.Error("expected signal, got timeout")
		}
		gotSignal = true
	})
	env.Go("caster", func(p *Proc) {
		p.Sleep(3 * time.Second)
		sig.Broadcast()
	})
	env.RunAll()
	if !gotTimeout || !gotSignal {
		t.Fatalf("gotTimeout=%v gotSignal=%v", gotTimeout, gotSignal)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("leftover waiters = %d", sig.Waiters())
	}
}

func TestWaitForTimeoutCondition(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	ready := false
	var ok, ok2 bool
	env.Go("w", func(p *Proc) {
		ok = p.WaitForTimeout(sig, 5*time.Second, func() bool { return ready })
	})
	env.Go("w2", func(p *Proc) {
		ok2 = p.WaitForTimeout(sig, time.Second, func() bool { return ready })
	})
	env.Go("setter", func(p *Proc) {
		p.Sleep(2 * time.Second)
		ready = true
		sig.Broadcast()
	})
	env.RunAll()
	if !ok {
		t.Fatal("WaitForTimeout should have seen the condition")
	}
	if ok2 {
		t.Fatal("WaitForTimeout should have timed out before the condition")
	}
}

func TestResourceFIFOWithinPriority(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []int
	env.Go("holder", func(p *Proc) {
		p.Acquire(r, 0)
		p.Sleep(time.Second)
		r.Release()
	})
	for i := 0; i < 3; i++ {
		i := i
		env.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			p.Acquire(r, 5)
			order = append(order, i)
			p.Sleep(time.Second)
			r.Release()
		})
	}
	env.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestResourcePriorityOrder(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []float64
	env.Go("holder", func(p *Proc) {
		p.Acquire(r, 0)
		p.Sleep(time.Second)
		r.Release()
	})
	for _, pri := range []float64{3, 1, 2} {
		pri := pri
		env.Go("w", func(p *Proc) {
			p.Sleep(time.Millisecond)
			p.Acquire(r, pri)
			order = append(order, pri)
			p.Sleep(time.Second)
			r.Release()
		})
	}
	env.RunAll()
	want := []float64{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 2)
	maxInUse := 0
	for i := 0; i < 6; i++ {
		env.Go("w", func(p *Proc) {
			p.Acquire(r, 0)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(time.Second)
			r.Release()
		})
	}
	env.RunAll()
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
	if r.Grants != 6 {
		t.Fatalf("grants = %d, want 6", r.Grants)
	}
}

func TestAcquireTimeout(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var timedOut, acquired bool
	env.Go("holder", func(p *Proc) {
		p.Acquire(r, 0)
		p.Sleep(5 * time.Second)
		r.Release()
	})
	env.Go("short", func(p *Proc) {
		p.Sleep(time.Millisecond)
		timedOut = !p.AcquireTimeout(r, 0, time.Second)
	})
	env.Go("long", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		acquired = p.AcquireTimeout(r, 0, time.Minute)
		if acquired {
			r.Release()
		}
	})
	env.RunAll()
	if !timedOut {
		t.Fatal("short waiter should have timed out")
	}
	if !acquired {
		t.Fatal("long waiter should have acquired")
	}
	if r.InUse() != 0 {
		t.Fatalf("in use = %d after all released", r.InUse())
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	env.Go("w", func(p *Proc) {
		p.Acquire(r, 0)
		p.Sleep(time.Second)
		r.Release()
	})
	env.Run(2 * time.Second)
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestMailboxFIFO(t *testing.T) {
	env := NewEnv()
	mb := NewMailbox[int](env)
	var got []int
	env.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p))
		}
	})
	env.Go("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			mb.Put(i)
		}
	})
	env.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("recv order = %v", got)
		}
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	env := NewEnv()
	mb := NewMailbox[string](env)
	var missed, hit bool
	env.Go("recv", func(p *Proc) {
		_, ok := mb.GetTimeout(p, time.Second)
		missed = !ok
		v, ok := mb.GetTimeout(p, 10*time.Second)
		hit = ok && v == "x"
	})
	env.Go("send", func(p *Proc) {
		p.Sleep(3 * time.Second)
		mb.Put("x")
	})
	env.RunAll()
	if !missed || !hit {
		t.Fatalf("missed=%v hit=%v", missed, hit)
	}
}

func TestMailboxPutFromEventCallback(t *testing.T) {
	env := NewEnv()
	mb := NewMailbox[int](env)
	var got int
	env.Go("recv", func(p *Proc) { got = mb.Get(p) })
	env.Schedule(time.Second, func() { mb.Put(42) })
	env.RunAll()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestMailboxTwoReceivers(t *testing.T) {
	env := NewEnv()
	mb := NewMailbox[int](env)
	sum := 0
	for i := 0; i < 2; i++ {
		env.Go("recv", func(p *Proc) { sum += mb.Get(p) })
	}
	env.Schedule(time.Second, func() { mb.Put(1) })
	env.Schedule(2*time.Second, func() { mb.Put(2) })
	env.RunAll()
	if sum != 3 {
		t.Fatalf("sum = %d, want 3", sum)
	}
	if env.Procs() != 0 {
		t.Fatalf("leaked receivers: %d", env.Procs())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var trace []string
		r := NewResource(env, 2)
		sig := NewSignal(env)
		for i := 0; i < 10; i++ {
			i := i
			env.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(i%3) * time.Second)
				p.Acquire(r, float64(i%4))
				trace = append(trace, p.Name()+string(rune('0'+i)))
				p.Sleep(time.Second)
				r.Release()
				sig.Broadcast()
			})
		}
		env.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any schedule of delays, events fire in nondecreasing time
// order and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		env := NewEnv()
		var last time.Duration = -1
		ok := true
		for _, d := range delaysMs {
			env.Schedule(time.Duration(d)*time.Millisecond, func() {
				if env.Now() < last {
					ok = false
				}
				last = env.Now()
			})
		}
		env.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource never exceeds its capacity and all waiters are
// eventually served for any mix of priorities and hold times.
func TestResourceInvariantProperty(t *testing.T) {
	f := func(prios []uint8, capacity uint8) bool {
		c := int(capacity%4) + 1
		env := NewEnv()
		r := NewResource(env, c)
		served := 0
		ok := true
		for _, pr := range prios {
			pr := pr
			env.Go("w", func(p *Proc) {
				p.Acquire(r, float64(pr))
				if r.InUse() > c {
					ok = false
				}
				p.Sleep(time.Duration(pr%5) * time.Millisecond)
				r.Release()
				served++
			})
		}
		env.RunAll()
		return ok && served == len(prios) && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireTimeoutImmediateGrant(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	ok := false
	env.Go("t", func(p *Proc) {
		ok = p.AcquireTimeout(r, 0, time.Second)
		if ok {
			r.Release()
		}
	})
	env.RunAll()
	if !ok {
		t.Fatal("free resource should grant immediately")
	}
	if env.Now() != 0 {
		t.Fatal("immediate grant took time")
	}
}

func TestAcquireTimeoutZeroBudgetFails(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var got bool
	env.Go("holder", func(p *Proc) {
		p.Acquire(r, 0)
		p.Sleep(time.Hour)
		r.Release()
	})
	env.Go("t", func(p *Proc) {
		p.Sleep(time.Millisecond)
		got = p.AcquireTimeout(r, 0, 0)
	})
	env.Run(time.Second)
	if got {
		t.Fatal("zero-budget acquire of a busy resource succeeded")
	}
	env.Close()
}

func TestStepsCountAndProcs(t *testing.T) {
	env := NewEnv()
	env.Schedule(time.Second, func() {})
	env.Schedule(2*time.Second, func() {})
	env.RunAll()
	if env.Steps() != 2 {
		t.Fatalf("steps = %d", env.Steps())
	}
	if env.Procs() != 0 {
		t.Fatalf("procs = %d", env.Procs())
	}
}

func TestGoAfterClosePanics(t *testing.T) {
	env := NewEnv()
	env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Go on closed Env did not panic")
		}
	}()
	env.Go("late", func(*Proc) {})
}

func TestWaitTimeoutZeroReturnsImmediately(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var got bool
	env.Go("t", func(p *Proc) {
		got = p.WaitTimeout(sig, 0)
	})
	env.RunAll()
	if got {
		t.Fatal("zero timeout should report timeout")
	}
}

func TestResourceCapacityPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity resource accepted")
		}
	}()
	NewResource(env, 0)
}

func TestCloseTerminatesInSpawnOrder(t *testing.T) {
	// Close must tear processes down in spawn order, not map order:
	// teardown side effects (deferred cleanup, diagnostics) are part of
	// the reproducible-run contract.
	env := NewEnv()
	sig := NewSignal(env)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Go("waiter", func(p *Proc) {
			defer func() { order = append(order, i) }()
			p.Wait(sig)
		})
	}
	env.RunAll() // all procs start and block on the signal
	env.Close()
	if len(order) != 8 {
		t.Fatalf("Close tore down %d procs, want 8", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("Close teardown order = %v, want spawn order", order)
		}
	}
}
