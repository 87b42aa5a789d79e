package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// The Machine path must behave exactly like the Proc path at every
// shared primitive: same wakeup order, same timeout semantics, same
// teardown discipline. These tests pin the contract; the model-level
// goldens pin the end-to-end equivalence.

type sleeperMachine struct {
	task  Task
	d     time.Duration
	ticks int
}

func (m *sleeperMachine) Resume() {
	m.ticks++
	m.task.Sleep(m.d)
}

func TestMachineSleepRepeats(t *testing.T) {
	env := NewEnv()
	m := &sleeperMachine{d: time.Millisecond}
	env.Spawn(&m.task, m)
	env.Run(10 * time.Millisecond)
	// Spawn resumes once at t=0, then once per elapsed millisecond.
	if m.ticks != 11 {
		t.Fatalf("machine resumed %d times, want 11", m.ticks)
	}
	if env.Machines() != 1 {
		t.Fatalf("Machines() = %d, want 1", env.Machines())
	}
	env.Close()
	if env.Machines() != 0 {
		t.Fatalf("Machines() after Close = %d, want 0", env.Machines())
	}
}

// logWaiter parks on a signal and logs its name each time it is woken,
// re-arming afterwards.
type logWaiter struct {
	task Task
	sig  *Signal
	log  *[]string
	name string
}

func (m *logWaiter) Resume() {
	*m.log = append(*m.log, m.name)
	m.task.Wait(m.sig)
}

// TestMachineSignalFIFOWithProcs interleaves processes and machines in
// one signal queue and checks that Fire serves them strictly in arming
// order, regardless of kind.
func TestMachineSignalFIFOWithProcs(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var log []string
	spawnProc := func(name string) {
		env.Go(name, func(p *Proc) {
			for {
				p.Wait(sig)
				log = append(log, name)
			}
		})
	}
	adoptMachine := func(name string) {
		m := &logWaiter{sig: sig, log: &log, name: name}
		env.Adopt(&m.task, m)
		m.task.Wait(sig)
	}
	// Machines arm at adopt time; processes arm at their t=0 dispatch.
	adoptMachine("m1")
	spawnProc("p1")
	adoptMachine("m2")
	spawnProc("p2")
	env.RunAll()
	want := []string{"m1", "m2", "p1", "p2"}
	for round := 0; round < 3; round++ {
		log = log[:0]
		for range want {
			sig.Fire()
		}
		env.RunAll()
		if len(log) != len(want) {
			t.Fatalf("round %d: woke %v, want %v", round, log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("round %d: woke %v, want %v", round, log, want)
			}
		}
	}
}

// resLogger acquires a resource at adopt time and, once granted, logs
// its id and releases, handing the unit to the next waiter.
type resLogger struct {
	task Task
	r    *Resource
	log  *[]int
	id   int
}

func (m *resLogger) Resume() {
	*m.log = append(*m.log, m.id)
	m.r.Release()
}

// TestMachineResourcePriority checks machines queue by (priority, seq)
// exactly like processes.
func TestMachineResourcePriority(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	holder := &resLogger{r: r}
	env.Adopt(&holder.task, holder)
	if !holder.task.Acquire(r, 0) {
		t.Fatal("initial acquire should grant synchronously")
	}
	var log []int
	add := func(id int, prio float64) *resLogger {
		m := &resLogger{r: r, log: &log, id: id}
		env.Adopt(&m.task, m)
		if m.task.Acquire(r, prio) {
			t.Fatalf("waiter %d acquired a held resource", id)
		}
		return m
	}
	add(1, 3) // ties and priorities: expect 3 (prio 1), 2, 4 (prio 2 FIFO), 1
	add(2, 2)
	add(3, 1)
	add(4, 2)
	r.Release()
	env.RunAll()
	want := []int{3, 2, 4, 1}
	if len(log) != len(want) {
		t.Fatalf("grant order %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("grant order %v, want %v", log, want)
		}
	}
	env.Close()
}

type timeoutLogger struct {
	task Task
	log  *[]string
	name string
}

func (m *timeoutLogger) Resume() {
	if m.task.TimedOut() {
		*m.log = append(*m.log, m.name+":timeout")
	} else {
		*m.log = append(*m.log, m.name+":woken")
	}
}

func TestMachineWaitTimeout(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var log []string

	expire := &timeoutLogger{log: &log, name: "a"}
	env.Adopt(&expire.task, expire)
	if !expire.task.WaitTimeout(sig, 5*time.Millisecond) {
		t.Fatal("positive timeout should park")
	}
	env.Run(10 * time.Millisecond)
	if len(log) != 1 || log[0] != "a:timeout" {
		t.Fatalf("log %v, want [a:timeout]", log)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("expired waiter still queued (%d)", sig.Waiters())
	}

	log = log[:0]
	woken := &timeoutLogger{log: &log, name: "b"}
	env.Adopt(&woken.task, woken)
	woken.task.WaitTimeout(sig, 5*time.Millisecond)
	sig.Fire()
	env.Run(20 * time.Millisecond)
	if len(log) != 1 || log[0] != "b:woken" {
		t.Fatalf("log %v, want [b:woken]", log)
	}

	// Non-positive timeout: immediate timeout, no park.
	if woken.task.WaitTimeout(sig, 0) {
		t.Fatal("WaitTimeout(0) parked, want immediate false")
	}
	if sig.Waiters() != 0 {
		t.Fatalf("WaitTimeout(0) left a queued waiter")
	}
}

type resTimeoutLogger struct {
	task Task
	log  *[]string
	name string
}

func (m *resTimeoutLogger) Resume() {
	if m.task.ResTimedOut() {
		*m.log = append(*m.log, m.name+":timeout")
	} else {
		*m.log = append(*m.log, m.name+":granted")
	}
}

func TestMachineAcquireTimeout(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	r := NewResource(env, 1)
	var log []string
	holder := &resTimeoutLogger{log: &log, name: "holder"}
	env.Adopt(&holder.task, holder)
	if holder.task.AcquireTimeout(r, 0, time.Second) != AcquireGranted {
		t.Fatal("free resource should grant synchronously")
	}

	late := &resTimeoutLogger{log: &log, name: "late"}
	env.Adopt(&late.task, late)
	if late.task.AcquireTimeout(r, 0, 0) != AcquireTimedOut {
		t.Fatal("d<=0 on a held resource should time out immediately")
	}

	parked := &resTimeoutLogger{log: &log, name: "parked"}
	env.Adopt(&parked.task, parked)
	if parked.task.AcquireTimeout(r, 0, 5*time.Millisecond) != AcquireParked {
		t.Fatal("held resource should park")
	}
	env.Run(10 * time.Millisecond)
	if len(log) != 1 || log[0] != "parked:timeout" {
		t.Fatalf("log %v, want [parked:timeout]", log)
	}
	if r.QueueLen() != 0 {
		t.Fatalf("expired waiter still queued (%d)", r.QueueLen())
	}

	log = log[:0]
	granted := &resTimeoutLogger{log: &log, name: "g"}
	env.Adopt(&granted.task, granted)
	granted.task.AcquireTimeout(r, 0, time.Hour)
	r.Release() // holder's unit
	env.RunAll()
	if len(log) != 1 || log[0] != "g:granted" {
		t.Fatalf("log %v, want [g:granted]", log)
	}
	r.Release()
}

// drainMachine drains its mailbox completely on every wakeup, the
// machine counterpart of a Get loop.
type drainMachine struct {
	task Task
	mb   *Mailbox[int]
	got  []int
}

func (m *drainMachine) Resume() {
	for {
		v, ok := m.mb.Recv(&m.task)
		if !ok {
			return
		}
		m.got = append(m.got, v)
	}
}

func TestMachineMailboxDrain(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	mb := NewMailbox[int](env)
	m := &drainMachine{mb: mb}
	env.Adopt(&m.task, m)
	if _, ok := mb.Recv(&m.task); ok {
		t.Fatal("Recv on empty mailbox should park")
	}
	// Three puts while parked: the first wakes the machine, one resume
	// event drains all three (Fire on a queue with one waiter wakes it
	// once; later Puts find an empty queue).
	mb.Put(1)
	mb.Put(2)
	mb.Put(3)
	steps := env.Steps()
	env.RunAll()
	if env.Steps()-steps != 1 {
		t.Fatalf("drain took %d events, want 1", env.Steps()-steps)
	}
	if len(m.got) != 3 || m.got[0] != 1 || m.got[1] != 2 || m.got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", m.got)
	}
	mb.Put(4)
	env.RunAll()
	if len(m.got) != 4 || m.got[3] != 4 {
		t.Fatalf("drained %v, want trailing 4", m.got)
	}
}

func TestMachineDetachAndReuse(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	m := &sleeperMachine{d: time.Millisecond}
	env.Spawn(&m.task, m)
	env.Step() // initial resume
	m.task.cancelWaits()
	// Simulate the machine finishing: detach, then reuse the task.
	m.task.Detach()
	if env.Machines() != 0 {
		t.Fatalf("Machines() after Detach = %d, want 0", env.Machines())
	}
	env.Spawn(&m.task, m)
	if env.Machines() != 1 {
		t.Fatalf("Machines() after re-Spawn = %d, want 1", env.Machines())
	}
}

func TestSpawnOnClosedEnvPanics(t *testing.T) {
	env := NewEnv()
	env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn on closed Env did not panic")
		}
	}()
	m := &sleeperMachine{}
	env.Spawn(&m.task, m)
}

// closerMachine records its MachineClose call; each variant parks on a
// different primitive so Close teardown covers timer, signal, mailbox,
// and resource waits.
type closerMachine struct {
	task Task
	name string
	log  *[]string
}

func (m *closerMachine) Resume()       {}
func (m *closerMachine) MachineClose() { *m.log = append(*m.log, m.name) }

// TestCloseDetachesMachinesInSpawnOrder is the machine mirror of
// TestCloseTerminatesInSpawnOrder: Close mid-run must tear down parked
// machines in spawn order whatever primitive each is parked on, empty
// the wait queues, and leave no goroutines behind.
func TestCloseDetachesMachinesInSpawnOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	sig := NewSignal(env)
	mb := NewMailbox[int](env)
	res := NewResource(env, 1)
	var log []string

	adopt := func(name string) *closerMachine {
		m := &closerMachine{name: name, log: &log}
		env.Adopt(&m.task, m)
		return m
	}
	timer := adopt("timer")
	timer.task.Sleep(time.Hour)
	signal := adopt("signal")
	signal.task.Wait(sig)
	mail := adopt("mailbox")
	if _, ok := mb.Recv(&mail.task); ok {
		t.Fatal("Recv on empty mailbox should park")
	}
	holder := adopt("holder")
	if !holder.task.Acquire(res, 0) {
		t.Fatal("free resource should grant")
	}
	blocked := adopt("resource")
	if blocked.task.Acquire(res, 0) {
		t.Fatal("held resource should park")
	}
	withTimeout := adopt("restimeout")
	if withTimeout.task.AcquireTimeout(res, 0, time.Hour) != AcquireParked {
		t.Fatal("held resource should park")
	}

	env.Run(time.Minute) // mid-run: the hour timer is still pending
	env.Close()

	want := []string{"timer", "signal", "mailbox", "holder", "resource", "restimeout"}
	if len(log) != len(want) {
		t.Fatalf("MachineClose order %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("MachineClose order %v, want %v", log, want)
		}
	}
	if sig.Waiters() != 0 {
		t.Fatalf("signal still has %d waiters after Close", sig.Waiters())
	}
	if res.QueueLen() != 0 {
		t.Fatalf("resource still has %d waiters after Close", res.QueueLen())
	}
	if env.Machines() != 0 {
		t.Fatalf("Machines() after Close = %d, want 0", env.Machines())
	}
	// Machines run on the driving goroutine: none may exist before or
	// after teardown.
	for i := 0; i < 10 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, got)
	}
}

// TestCloseStopsProcsBeforeMachines pins the documented teardown order:
// processes (spawn order) first, then machines (spawn order).
func TestCloseStopsProcsBeforeMachines(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var log []string
	m := &closerMachine{name: "machine", log: &log}
	env.Adopt(&m.task, m)
	m.task.Wait(sig)
	env.Go("proc", func(p *Proc) {
		defer func() { log = append(log, "proc") }()
		p.Wait(sig)
	})
	env.RunAll()
	env.Close()
	if len(log) != 2 || log[0] != "proc" || log[1] != "machine" {
		t.Fatalf("teardown order %v, want [proc machine]", log)
	}
}

// TestEventPoolShrinksAfterBurst pins the satellite fix: after a burst
// of scheduled events drains, the event pool gives its burst-peak
// records back instead of holding them for the rest of the run.
func TestEventPoolShrinksAfterBurst(t *testing.T) {
	env := NewEnv()
	// One long-lived event at index 0 keeps the pool from emptying.
	keep := env.Schedule(time.Hour, func() {})
	const burst = 10000
	for i := 0; i < burst; i++ {
		env.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	if len(env.pool) < burst {
		t.Fatalf("pool holds %d records during burst, want >= %d", len(env.pool), burst)
	}
	var stale Timer
	stale = env.Schedule(time.Duration(burst)*time.Microsecond, func() {})
	env.Run(time.Minute)
	if len(env.pool) > minEventPool {
		t.Fatalf("pool holds %d records after burst drained, want <= %d", len(env.pool), minEventPool)
	}
	if len(env.free) > minEventPool {
		t.Fatalf("free list holds %d entries after shrink, want <= %d", len(env.free), minEventPool)
	}
	// Handles into the trimmed region stay safe and read as stopped.
	if !stale.Stopped() {
		t.Fatal("stale timer into trimmed pool should report Stopped")
	}
	stale.Cancel() // must not panic or cancel anything live

	// Regrown records must not alias stale handles: schedule new events
	// and verify the old handle still cannot cancel them.
	var fired int
	for i := 0; i < burst; i++ {
		env.Schedule(time.Millisecond, func() { fired++ })
	}
	stale.Cancel()
	env.Run(2 * time.Hour)
	if fired != burst {
		t.Fatalf("stale handle canceled a regrown event: fired %d, want %d", fired, burst)
	}
	if keep.Stopped() != true {
		t.Fatal("long-lived event should have fired by now")
	}
	env.Close()
}

// TestEventPoolSteadyStateNoShrinkThrash checks the shrink pass stays
// off the steady-state path: a small recurring workload keeps its pool
// and never reallocates.
func TestEventPoolSteadyStateNoShrinkThrash(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	for i := 0; i < 64; i++ {
		env.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady state allocates %.1f objects/op with shrink policy, want 0", allocs)
	}
}

func TestMachineSleepNoAllocs(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	m := &sleeperMachine{d: time.Millisecond}
	env.Spawn(&m.task, m)
	for i := 0; i < 8; i++ {
		env.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.Step()
	})
	if allocs != 0 {
		t.Fatalf("machine sleep resume allocates %.1f objects/op, want 0", allocs)
	}
}

// A population whose size is known is announced once: after Grow(n),
// spawning n machines and stepping each to its first park grows neither
// the registry, the event pool, its free list nor the heap. The machines
// sleep on, as a site's generator does, so every recycled event record
// is taken again at once.
func TestGrowThenSpawnNoAllocs(t *testing.T) {
	const n, runs = 500, 4
	env := NewEnv()
	defer env.Close()
	ms := make([]sleeperMachine, (runs+1)*n) // AllocsPerRun warms up with one extra call
	env.Grow(len(ms))
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < n; i++ {
			m := &ms[next]
			next++
			m.d = time.Hour
			env.Spawn(&m.task, m)
		}
		for i := 0; i < n; i++ {
			env.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("spawning and stepping %d machines after Grow allocates %.1f objects, want 0", n, allocs)
	}
	if got := env.Machines(); got != len(ms) {
		t.Errorf("%d machines live, want %d", got, len(ms))
	}
}

// rearmingWaiter waits on its signal with a timeout, again and again.
type rearmingWaiter struct {
	task Task
	s    *Signal
	d    time.Duration
}

func (m *rearmingWaiter) Resume() { m.task.WaitTimeout(m.s, m.d) }

// Grow reserves capacity and nothing else: a model of sleepers, a
// mailbox fed by timers and a waiter whose timeouts are canceled
// executes the same (at, seq) sequence with the call and without it.
func TestGrowLeavesEventOrderAlone(t *testing.T) {
	type key struct {
		at  time.Duration
		seq int64
	}
	run := func(grow bool) (order []key, drained []int) {
		env := NewEnv()
		defer env.Close()
		const n = 40
		if grow {
			env.Grow(n + 2)
		}
		ms := make([]sleeperMachine, n)
		for i := range ms {
			ms[i].d = time.Duration(i%7+1) * time.Millisecond
			env.Spawn(&ms[i].task, &ms[i])
		}
		mb := NewMailbox[int](env)
		d := &drainMachine{mb: mb}
		env.Spawn(&d.task, d)
		w := &rearmingWaiter{s: NewSignal(env), d: 3 * time.Millisecond}
		env.Spawn(&w.task, w)
		for i := 0; i < 30; i++ {
			i := i
			env.Schedule(time.Duration(i)*1500*time.Microsecond, func() {
				mb.Put(i)
				if i%4 == 0 {
					w.s.Fire() // cancels the waiter's pending timeout
				}
			})
		}
		for len(env.events) > 0 && env.events[0].at <= 60*time.Millisecond {
			order = append(order, key{env.events[0].at, env.events[0].seq})
			env.Step()
		}
		return order, d.got
	}
	plain, plainGot := run(false)
	grown, grownGot := run(true)
	if len(plain) < 400 {
		t.Fatalf("only %d events: the model is too small to say anything", len(plain))
	}
	if !slices.Equal(plain, grown) {
		t.Errorf("event order differs with Grow: %d events without, %d with", len(plain), len(grown))
	}
	if !slices.Equal(plainGot, grownGot) {
		t.Errorf("mailbox drained %v without Grow, %v with", plainGot, grownGot)
	}
}

// BenchmarkMachineSleep measures the machine resume cycle that replaces
// the goroutine handoff of BenchmarkSleepPingPong: pop event, call
// Resume, schedule the next sleep.
func BenchmarkMachineSleep(b *testing.B) {
	env := NewEnv()
	m := &sleeperMachine{d: time.Millisecond}
	env.Spawn(&m.task, m)
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

// BenchmarkMachineSignalWaitFire is the machine counterpart of
// BenchmarkSignalWaitFire: a parked machine, a fire, a direct resume.
func BenchmarkMachineSignalWaitFire(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var log []string
	m := &logWaiter{sig: sig, log: &log, name: "w"}
	env.Adopt(&m.task, m)
	m.task.Wait(sig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log = log[:0]
		sig.Fire()
		env.RunAll()
	}
}

// BenchmarkMachineMailbox measures a Put waking a parked machine that
// drains it — the dominant cycle of every converted endpoint.
func BenchmarkMachineMailbox(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	mb := NewMailbox[int](env)
	m := &drainMachine{mb: mb}
	env.Adopt(&m.task, m)
	mb.Recv(&m.task)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.got = m.got[:0]
		mb.Put(i)
		env.RunAll()
	}
}
