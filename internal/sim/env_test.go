package sim_test

import (
	"testing"
	"testing/quick"
	"time"

	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
)

func do(fn func()) simtest.Step {
	return func(*sim.Task) bool { fn(); return true }
}

func sleep(d time.Duration) simtest.Step {
	return simtest.Park(func(t *sim.Task) bool { t.Sleep(d); return true })
}

// sleepUntil sleeps to the absolute time at, or not at all when at has
// passed.
func sleepUntil(at time.Duration) simtest.Step {
	return simtest.Park(func(t *sim.Task) bool { t.Sleep(at - t.Now()); return true })
}

func wait(s *sim.Signal) simtest.Step {
	return simtest.Park(func(t *sim.Task) bool { t.Wait(s); return true })
}

func acquire(r *sim.Resource, priority float64) simtest.Step {
	return simtest.Park(func(t *sim.Task) bool { return !t.Acquire(r, priority) })
}

// waitTimeout waits on s for at most d and reports through woken
// whether the signal (not the timeout) ended the wait.
func waitTimeout(s *sim.Signal, d time.Duration, woken *bool) simtest.Step {
	armed := false
	return func(t *sim.Task) bool {
		if !armed {
			armed = true
			if t.WaitTimeout(s, d) {
				return false
			}
			*woken = false
			return true
		}
		*woken = !t.TimedOut()
		return true
	}
}

// waitFor waits on s until cond holds or the clock reaches deadline,
// re-checking cond on every wakeup, and reports which came first.
func waitFor(s *sim.Signal, deadline time.Duration, cond func() bool, ok *bool) simtest.Step {
	return func(t *sim.Task) bool {
		if cond() {
			*ok = true
			return true
		}
		if t.Now() >= deadline || !t.WaitTimeout(s, deadline-t.Now()) {
			*ok = false
			return true
		}
		return false
	}
}

// acquireTimeout acquires a unit of r within d and reports through got
// whether it holds one.
func acquireTimeout(r *sim.Resource, priority float64, d time.Duration, got *bool) simtest.Step {
	armed := false
	return func(t *sim.Task) bool {
		if !armed {
			armed = true
			switch t.AcquireTimeout(r, priority, d) {
			case sim.AcquireParked:
				return false
			case sim.AcquireGranted:
				*got = true
			default:
				*got = false
			}
			return true
		}
		*got = !t.ResTimedOut()
		return true
	}
}

// box is a mailbox read by machines written as steps: its reader hook
// wakes every machine waiting on sig, and each takes an item or, finding
// none, waits again (recv). A mailbox has one reader and no machine
// waits on it; this is that reader relaying to the steps below.
type box[T any] struct {
	mb  sim.Mailbox[T]
	sig *sim.Signal
}

func newBox[T any](env *sim.Env) *box[T] {
	b := &box[T]{sig: sim.NewSignal(env)}
	b.mb.Init(env, nil, b)
	return b
}

func (b *box[T]) RunEvent() { b.sig.Broadcast() }

func recv[T any](b *box[T], got func(T)) simtest.Step {
	return func(t *sim.Task) bool {
		if v, ok := b.mb.TryGet(); ok {
			got(v)
			return true
		}
		t.Wait(b.sig)
		return false
	}
}

// recvTimeout receives from b, giving up d after the step first runs.
func recvTimeout[T any](b *box[T], d time.Duration, got func(T, bool)) simtest.Step {
	deadline := time.Duration(-1)
	return func(t *sim.Task) bool {
		if deadline < 0 {
			deadline = t.Now() + d
		}
		if v, ok := b.mb.TryGet(); ok {
			got(v, true)
			return true
		}
		if t.Now() >= deadline || !t.WaitTimeout(b.sig, deadline-t.Now()) {
			var zero T
			got(zero, false)
			return true
		}
		return false
	}
}

func TestScheduleOrdering(t *testing.T) {
	env := sim.NewEnv()
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
	env := sim.NewEnv()
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
	env := sim.NewEnv()
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

// Run leaves the clock at until both when the queue drains before it and
// when the next event lies beyond it; an until behind the clock executes
// nothing and leaves the clock alone.
func TestRunLeavesClockAtUntil(t *testing.T) {
	env := sim.NewEnv()
	env.Schedule(time.Second, func() {})
	env.Run(5 * time.Second)
	if env.Now() != 5*time.Second {
		t.Fatalf("queue drained at 1s: Now = %v, want 5s", env.Now())
	}
	fired := false
	env.Schedule(10*time.Second, func() { fired = true })
	env.Run(8 * time.Second)
	if fired || env.Now() != 8*time.Second {
		t.Fatalf("next event at 15s: fired = %v, Now = %v, want false, 8s", fired, env.Now())
	}
	env.Schedule(0, func() { fired = true })
	env.Run(3 * time.Second)
	if fired || env.Now() != 8*time.Second {
		t.Fatalf("until behind the clock: fired = %v, Now = %v, want false, 8s", fired, env.Now())
	}
	env.Run(20 * time.Second)
	if !fired || env.Now() != 20*time.Second {
		t.Fatalf("fired = %v, Now = %v, want true, 20s", fired, env.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	env := sim.NewEnv()
	fired := false
	tm := env.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	env.RunAll()
	if fired {
		t.Fatal("canceled timer fired")
	}
	tm.Cancel() // canceling a spent timer is a no-op
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	env := sim.NewEnv()
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
	env := sim.NewEnv()
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
	env := sim.NewEnv()
	var wake time.Duration
	env.Go("sleeper", func(p *sim.Proc) {
		p.Sleep(3 * time.Second)
		wake = env.Now()
	})
	env.RunAll()
	if wake != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", wake)
	}
	if env.Live() != 0 {
		t.Fatalf("live actors = %d, want 0", env.Live())
	}
}

func TestProcSleepUntil(t *testing.T) {
	env := sim.NewEnv()
	var order []string
	simtest.Spawn(env,
		sleepUntil(2*time.Second),
		do(func() { order = append(order, "a") }),
		sleepUntil(time.Second), // past: resumes immediately
		do(func() { order = append(order, "a2") }))
	simtest.Spawn(env, sleep(time.Second), do(func() { order = append(order, "b") }))
	env.RunAll()
	want := []string{"b", "a", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcSpawnsChild(t *testing.T) {
	env := sim.NewEnv()
	var childRan bool
	env.Go("parent", func(p *sim.Proc) {
		env.Go("child", func(c *sim.Proc) {
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
	env := sim.NewEnv()
	cleanups := 0
	for i := 0; i < 5; i++ {
		env.Go("p", func(p *sim.Proc) {
			defer func() { cleanups++ }()
			p.Sleep(time.Hour)
		})
	}
	env.Run(time.Second)
	if env.Live() != 5 {
		t.Fatalf("live procs = %d, want 5", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("after Close live procs = %d, want 0", env.Live())
	}
	if cleanups != 5 {
		t.Fatalf("cleanups = %d, want 5", cleanups)
	}
}

func TestCloseWithBlockingDefer(t *testing.T) {
	env := sim.NewEnv()
	env.Go("p", func(p *sim.Proc) {
		defer p.Sleep(time.Second) // blocking in defer during shutdown must not hang
		p.Sleep(time.Hour)
	})
	env.Run(time.Millisecond)
	env.Close()
	if env.Live() != 0 {
		t.Fatal("proc leaked past Close")
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	env := sim.NewEnv()
	sig := sim.NewSignal(env)
	woken := 0
	for i := 0; i < 3; i++ {
		simtest.Spawn(env, wait(sig), do(func() { woken++ }))
	}
	simtest.Spawn(env, sleep(time.Second), do(sig.Broadcast))
	env.RunAll()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestWaitTimeout(t *testing.T) {
	env := sim.NewEnv()
	sig := sim.NewSignal(env)
	var woken1, woken2, gotSignal, gotTimeout bool
	simtest.Spawn(env, waitTimeout(sig, time.Second, &woken1), do(func() {
		if woken1 {
			t.Error("expected timeout, got signal")
		}
		gotTimeout = true
	}))
	simtest.Spawn(env,
		sleep(2*time.Second), // waits after the broadcast below is scheduled
		waitTimeout(sig, 10*time.Second, &woken2),
		do(func() {
			if !woken2 {
				t.Error("expected signal, got timeout")
			}
			gotSignal = true
		}))
	simtest.Spawn(env, sleep(3*time.Second), do(sig.Broadcast))
	env.RunAll()
	if !gotTimeout || !gotSignal {
		t.Fatalf("gotTimeout=%v gotSignal=%v", gotTimeout, gotSignal)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("leftover waiters = %d", sig.Waiters())
	}
}

func TestWaitForTimeoutCondition(t *testing.T) {
	env := sim.NewEnv()
	sig := sim.NewSignal(env)
	ready := false
	cond := func() bool { return ready }
	var ok, ok2 bool
	simtest.Spawn(env, waitFor(sig, 5*time.Second, cond, &ok))
	simtest.Spawn(env, waitFor(sig, time.Second, cond, &ok2))
	simtest.Spawn(env, sleep(2*time.Second), do(func() {
		ready = true
		sig.Broadcast()
	}))
	env.RunAll()
	if !ok {
		t.Fatal("a wait with time to spare should have seen the condition")
	}
	if ok2 {
		t.Fatal("a short wait should have timed out before the condition")
	}
}

func TestResourceFIFOWithinPriority(t *testing.T) {
	env := sim.NewEnv()
	r := sim.NewResource(env, 1)
	var order []int
	simtest.Spawn(env, acquire(r, 0), sleep(time.Second), do(r.Release))
	for i := 0; i < 3; i++ {
		i := i
		simtest.Spawn(env,
			sleep(time.Duration(i+1)*time.Millisecond),
			acquire(r, 5),
			do(func() { order = append(order, i) }),
			sleep(time.Second),
			do(r.Release))
	}
	env.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestResourcePriorityOrder(t *testing.T) {
	env := sim.NewEnv()
	r := sim.NewResource(env, 1)
	var order []float64
	simtest.Spawn(env, acquire(r, 0), sleep(time.Second), do(r.Release))
	for _, pri := range []float64{3, 1, 2} {
		pri := pri
		simtest.Spawn(env,
			sleep(time.Millisecond),
			acquire(r, pri),
			do(func() { order = append(order, pri) }),
			sleep(time.Second),
			do(r.Release))
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
	env := sim.NewEnv()
	r := sim.NewResource(env, 2)
	maxInUse, granted := 0, 0
	for i := 0; i < 6; i++ {
		simtest.Spawn(env,
			acquire(r, 0),
			do(func() { maxInUse, granted = max(maxInUse, r.InUse()), granted+1 }),
			sleep(time.Second),
			do(r.Release))
	}
	env.RunAll()
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
	if granted != 6 {
		t.Fatalf("grants = %d, want 6", granted)
	}
}

func TestAcquireTimeout(t *testing.T) {
	env := sim.NewEnv()
	r := sim.NewResource(env, 1)
	var short, acquired bool
	simtest.Spawn(env, acquire(r, 0), sleep(5*time.Second), do(r.Release))
	simtest.Spawn(env, sleep(time.Millisecond), acquireTimeout(r, 0, time.Second, &short))
	simtest.Spawn(env,
		sleep(2*time.Millisecond),
		acquireTimeout(r, 0, time.Minute, &acquired),
		do(func() {
			if acquired {
				r.Release()
			}
		}))
	env.RunAll()
	if short {
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
	env := sim.NewEnv()
	r := sim.NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestMailboxFIFO(t *testing.T) {
	env := sim.NewEnv()
	b := newBox[int](env)
	var got []int
	keep := func(v int) { got = append(got, v) }
	simtest.Spawn(env, recv(b, keep), recv(b, keep), recv(b, keep))
	simtest.Spawn(env,
		sleep(time.Second), do(func() { b.mb.Put(0) }),
		sleep(time.Second), do(func() { b.mb.Put(1) }),
		sleep(time.Second), do(func() { b.mb.Put(2) }))
	env.RunAll()
	if len(got) != 3 {
		t.Fatalf("received %v, want three", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("recv order = %v", got)
		}
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	env := sim.NewEnv()
	b := newBox[string](env)
	var missed, hit bool
	simtest.Spawn(env,
		recvTimeout(b, time.Second, func(_ string, ok bool) { missed = !ok }),
		recvTimeout(b, 10*time.Second, func(v string, ok bool) { hit = ok && v == "x" }))
	simtest.Spawn(env, sleep(3*time.Second), do(func() { b.mb.Put("x") }))
	env.RunAll()
	if !missed || !hit {
		t.Fatalf("missed=%v hit=%v", missed, hit)
	}
}

func TestMailboxPutFromEventCallback(t *testing.T) {
	env := sim.NewEnv()
	b := newBox[int](env)
	var got int
	simtest.Spawn(env, recv(b, func(v int) { got = v }))
	env.Schedule(time.Second, func() { b.mb.Put(42) })
	env.RunAll()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestMailboxTwoReceivers(t *testing.T) {
	env := sim.NewEnv()
	b := newBox[int](env)
	sum := 0
	for i := 0; i < 2; i++ {
		simtest.Spawn(env, recv(b, func(v int) { sum += v }))
	}
	env.Schedule(time.Second, func() { b.mb.Put(1) })
	env.Schedule(2*time.Second, func() { b.mb.Put(2) })
	env.RunAll()
	if sum != 3 {
		t.Fatalf("sum = %d, want 3", sum)
	}
	if env.Live() != 0 {
		t.Fatalf("leaked receivers: %d", env.Live())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		env := sim.NewEnv()
		var trace []string
		r := sim.NewResource(env, 2)
		sig := sim.NewSignal(env)
		for i := 0; i < 10; i++ {
			i := i
			simtest.Spawn(env,
				sleep(time.Duration(i%3)*time.Second),
				acquire(r, float64(i%4)),
				do(func() { trace = append(trace, "p"+string(rune('0'+i))) }),
				sleep(time.Second),
				do(func() {
					r.Release()
					sig.Broadcast()
				}))
		}
		env.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != 10 || len(a) != len(b) {
		t.Fatalf("trace lengths %d and %d, want 10", len(a), len(b))
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
		env := sim.NewEnv()
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
		env := sim.NewEnv()
		r := sim.NewResource(env, c)
		served := 0
		ok := true
		for _, pr := range prios {
			pr := pr
			simtest.Spawn(env,
				acquire(r, float64(pr)),
				do(func() {
					if r.InUse() > c {
						ok = false
					}
				}),
				sleep(time.Duration(pr%5)*time.Millisecond),
				do(func() {
					r.Release()
					served++
				}))
		}
		env.RunAll()
		return ok && served == len(prios) && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireTimeoutImmediateGrant(t *testing.T) {
	env := sim.NewEnv()
	r := sim.NewResource(env, 1)
	ok := false
	simtest.Spawn(env, acquireTimeout(r, 0, time.Second, &ok), do(func() {
		if ok {
			r.Release()
		}
	}))
	env.RunAll()
	if !ok {
		t.Fatal("free resource should grant immediately")
	}
	if env.Now() != 0 {
		t.Fatal("immediate grant took time")
	}
}

func TestAcquireTimeoutZeroBudgetFails(t *testing.T) {
	env := sim.NewEnv()
	r := sim.NewResource(env, 1)
	got := true
	simtest.Spawn(env, acquire(r, 0), sleep(time.Hour), do(r.Release))
	simtest.Spawn(env, sleep(time.Millisecond), acquireTimeout(r, 0, 0, &got))
	env.Run(time.Second)
	if got {
		t.Fatal("zero-budget acquire of a busy resource succeeded")
	}
	env.Close()
}

func TestStepsCountAndProcs(t *testing.T) {
	env := sim.NewEnv()
	env.Schedule(time.Second, func() {})
	env.Schedule(2*time.Second, func() {})
	env.RunAll()
	if env.Steps() != 2 {
		t.Fatalf("steps = %d", env.Steps())
	}
	if env.Live() != 0 {
		t.Fatalf("live actors = %d", env.Live())
	}
}

func TestGoAfterClosePanics(t *testing.T) {
	env := sim.NewEnv()
	env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Go on closed Env did not panic")
		}
	}()
	env.Go("late", func(*sim.Proc) {})
}

func TestWaitTimeoutZeroReturnsImmediately(t *testing.T) {
	env := sim.NewEnv()
	sig := sim.NewSignal(env)
	woken := true
	simtest.Spawn(env, waitTimeout(sig, 0, &woken))
	env.RunAll()
	if woken {
		t.Fatal("zero timeout should report timeout")
	}
	if sig.Waiters() != 0 {
		t.Fatal("zero timeout left a queued waiter")
	}
}

func TestResourceCapacityPanics(t *testing.T) {
	env := sim.NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity resource accepted")
		}
	}()
	sim.NewResource(env, 0)
}

func TestCloseTerminatesInSpawnOrder(t *testing.T) {
	// Close must tear processes down in spawn order, not map order:
	// teardown side effects (deferred cleanup, diagnostics) are part of
	// the reproducible-run contract.
	env := sim.NewEnv()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Go("sleeper", func(p *sim.Proc) {
			defer func() { order = append(order, i) }()
			p.Sleep(time.Hour)
		})
	}
	env.Run(time.Minute) // all procs start and park
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
