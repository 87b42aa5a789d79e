package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// These tests pin the machine contract at every primitive: wakeup
// order, timeout semantics, teardown discipline. The model-level
// goldens pin the end-to-end behaviour.

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
	if env.liveTasks != 1 {
		t.Fatalf("%d machines live, want 1", env.liveTasks)
	}
	env.Close()
	if env.liveTasks != 0 {
		t.Fatalf("%d machines live after Close, want 0", env.liveTasks)
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
	sig.Broadcast()
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

// drainReader drains its mailbox completely on every event: the
// mailbox's reader hook.
type drainReader struct {
	mb  Mailbox[int]
	got []int
}

func newDrainReader(env *Env) *drainReader {
	r := new(drainReader)
	r.mb.Init(env, nil, r)
	return r
}

func (r *drainReader) RunEvent() {
	for {
		v, ok := r.mb.TryGet()
		if !ok {
			return
		}
		r.got = append(r.got, v)
	}
}

func TestMachineMailboxDrain(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	m := newDrainReader(env)
	if _, ok := m.mb.TryGet(); ok {
		t.Fatal("TryGet on an empty mailbox returned an item")
	}
	// Three puts while the reader is idle: the first posts it, one event
	// drains all three (later Puts find it posted).
	m.mb.Put(1)
	m.mb.Put(2)
	m.mb.Put(3)
	steps := env.Steps()
	env.RunAll()
	if env.Steps()-steps != 1 {
		t.Fatalf("drain took %d events, want 1", env.Steps()-steps)
	}
	if len(m.got) != 3 || m.got[0] != 1 || m.got[1] != 2 || m.got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", m.got)
	}
	m.mb.Put(4)
	env.RunAll()
	if len(m.got) != 4 || m.got[3] != 4 {
		t.Fatalf("drained %v, want trailing 4", m.got)
	}
}

// stepReader is a reader that takes at most take items an event (all of
// them when take < 0) and counts its events: with items left it is busy,
// and only an event of its own brings it back.
type stepReader struct {
	mb   Mailbox[int]
	take int
	runs int
	got  []int
}

func (r *stepReader) RunEvent() {
	r.runs++
	for i := 0; r.take < 0 || i < r.take; i++ {
		v, ok := r.mb.TryGet()
		if !ok {
			return
		}
		r.got = append(r.got, v)
	}
}

// TestMailboxReaderContract pins the one wake path of a mailbox: a Put
// that finds the reader idle posts its hook once, at the current
// instant; no Put posts while that event is pending or while the reader
// is busy with items it has not taken; the reader takes items in FIFO
// order; and a TryGet that finds the mailbox dry makes the reader idle
// again, so the next Put posts it anew.
func TestMailboxReaderContract(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	r := &stepReader{take: 1}
	r.mb.Init(env, nil, r)
	posted := func() int64 { return env.seq }
	queued := func() int { return len(env.events) + len(env.ready) - env.readyHead }

	if queued() != 0 {
		t.Fatalf("Init queued %d events, want none: the reader starts idle", queued())
	}
	env.Schedule(time.Second, func() {
		before := posted()
		r.mb.Put(1) // idle → non-empty: the hook is posted, now
		r.mb.Put(2) // posted: nothing more
		if n := posted() - before; n != 1 {
			t.Errorf("two Puts to an idle reader posted %d events, want 1", n)
		}
		if at, _, ok := env.peek(); !ok || at != time.Second {
			t.Errorf("reader posted at %v (queued %v), want now (1s)", at, ok)
		}
	})
	env.RunAll()
	if r.runs != 1 || len(r.got) != 1 || r.got[0] != 1 {
		t.Fatalf("after the first wake: %d runs, got %v; want 1 run, [1]", r.runs, r.got)
	}

	// Busy: an item is left and the reader has not found the mailbox dry.
	before := posted()
	r.mb.Put(3)
	if posted() != before {
		t.Error("a Put to a busy reader posted its hook")
	}
	env.RunAll()
	if r.runs != 1 {
		t.Fatalf("a busy reader ran %d times, want 1", r.runs)
	}

	// The reader's own later event drains the rest, in order, and
	// finds the mailbox dry: idle again.
	r.take = -1
	env.AtHook(env.Now()+time.Second, r)
	env.RunAll()
	if r.runs != 2 || len(r.got) != 3 || r.got[1] != 2 || r.got[2] != 3 {
		t.Fatalf("after the drain: %d runs, got %v; want 2 runs, [1 2 3]", r.runs, r.got)
	}
	if r.mb.n != idle {
		t.Fatalf("a drained mailbox's count is %d, want idle", r.mb.n)
	}
	before = posted()
	r.mb.Put(4)
	if posted()-before != 1 {
		t.Errorf("a Put after the drain posted %d events, want 1", posted()-before)
	}
	env.RunAll()
	if r.runs != 3 || len(r.got) != 4 || r.got[3] != 4 {
		t.Fatalf("after re-arming: %d runs, got %v; want 3 runs, [1 2 3 4]", r.runs, r.got)
	}

	// A mailbox without a reader posts nothing.
	bare := NewMailbox[int](env)
	before = posted()
	bare.Put(5)
	if posted() != before {
		t.Error("a Put to a mailbox without a reader posted an event")
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
	if env.liveTasks != 0 {
		t.Fatalf("%d machines live after Detach, want 0", env.liveTasks)
	}
	env.Spawn(&m.task, m)
	if env.liveTasks != 1 {
		t.Fatalf("%d machines live after re-Spawn, want 1", env.liveTasks)
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
// and resource waits (the mailbox's is its reader: adopted, and woken by
// the mailbox's hook, not by a park).
type closerMachine struct {
	task Task
	name string
	log  *[]string
}

func (m *closerMachine) Resume()       {}
func (m *closerMachine) RunEvent()     { m.Resume() }
func (m *closerMachine) MachineClose() { *m.log = append(*m.log, m.name) }

// TestCloseDetachesMachinesInSpawnOrder is the machine mirror of
// TestCloseTerminatesInSpawnOrder: Close mid-run must tear down parked
// machines in spawn order whatever primitive each is parked on, empty
// the wait queues, and leave no goroutines behind.
func TestCloseDetachesMachinesInSpawnOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	sig := NewSignal(env)
	var mb Mailbox[int]
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
	mb.Init(env, nil, mail)
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on an empty mailbox returned an item")
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
	if env.liveTasks != 0 {
		t.Fatalf("%d machines live after Close, want 0", env.liveTasks)
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

// TestCloseTearsDownInSpawnOrderAcrossKinds pins the teardown order:
// one registry holds machines and processes alike, so Close tears them
// down in spawn order whatever the kind.
func TestCloseTearsDownInSpawnOrderAcrossKinds(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var log []string
	first := &closerMachine{name: "machine1", log: &log}
	env.Adopt(&first.task, first)
	first.task.Wait(sig)
	env.Go("proc", func(p *Proc) {
		defer func() { log = append(log, "proc") }()
		p.Sleep(time.Hour)
	})
	second := &closerMachine{name: "machine2", log: &log}
	env.Adopt(&second.task, second)
	second.task.Sleep(time.Hour)
	env.Run(time.Minute)
	env.Close()
	if len(log) != 3 || log[0] != "machine1" || log[1] != "proc" || log[2] != "machine2" {
		t.Fatalf("teardown order %v, want [machine1 proc machine2]", log)
	}
	if env.liveTasks != 0 {
		t.Fatalf("%d actors live after Close", env.liveTasks)
	}
}

// stopped reports whether tm was canceled or has fired, or its record
// was trimmed by the pool-shrink pass.
func stopped(tm Timer) bool {
	if tm.env == nil || int(tm.idx) >= len(tm.env.pool) {
		return true
	}
	rec := &tm.env.pool[tm.idx]
	return rec.gen != tm.gen || rec.canceled
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
	if !stopped(stale) {
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
	if !stopped(keep) {
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

// chainHook posts itself d after each of its events, as a site's
// arrival chain does.
type chainHook struct {
	env *Env
	d   time.Duration
}

func (h *chainHook) RunEvent() { h.env.AtHook(h.env.now+h.d, h) }

// A population whose size is known is announced once: after Grow(n),
// posting n first events ahead of now — a population's first arrivals —
// and stepping each to post its next grows neither the event pool, its
// free list nor the heap, and allocates nothing.
func TestGrowThenPostNoAllocs(t *testing.T) {
	const n, runs = 500, 4
	env := NewEnv()
	defer env.Close()
	hs := make([]chainHook, (runs+1)*n) // AllocsPerRun warms up with one extra call
	env.Grow(len(hs))
	caps := func() [3]int { return [3]int{cap(env.pool), cap(env.free), cap(env.events)} }
	grown := caps()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < n; i++ {
			h := &hs[next]
			next++
			h.env, h.d = env, time.Hour
			env.AtHook(env.now+time.Duration(i+1)*time.Microsecond, h)
		}
		for i := 0; i < n; i++ {
			env.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("posting and stepping %d hooks after Grow allocates %.1f objects, want 0", n, allocs)
	}
	if got := caps(); got != grown {
		t.Errorf("capacities of pool, free list, heap went from %v after Grow to %v", grown, got)
	}
	if got := len(env.events); got != len(hs) {
		t.Errorf("%d events pending, want one per hook (%d)", got, len(hs))
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
// executes the same events in the same order, taking the same sequence
// numbers, with the call and without it. The spawns' first resumes wait
// in the ready FIFO, so the order is read through peek, which sees both
// queues.
func TestGrowLeavesEventOrderAlone(t *testing.T) {
	type key struct {
		at  time.Duration
		idx int32
	}
	run := func(grow bool) (order []key, drained []int, seq int64) {
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
		d := newDrainReader(env)
		w := &rearmingWaiter{s: NewSignal(env), d: 3 * time.Millisecond}
		env.Spawn(&w.task, w)
		for i := 0; i < 30; i++ {
			i := i
			env.Schedule(time.Duration(i)*1500*time.Microsecond, func() {
				d.mb.Put(i)
				if i%4 == 0 {
					w.s.Broadcast() // cancels the waiter's pending timeout
				}
			})
		}
		for {
			at, idx, ok := env.peek()
			if !ok || at > 60*time.Millisecond {
				break
			}
			order = append(order, key{at, idx})
			env.Step()
		}
		return order, d.got, env.seq
	}
	plain, plainGot, plainSeq := run(false)
	grown, grownGot, grownSeq := run(true)
	if len(plain) < 400 {
		t.Fatalf("only %d events: the model is too small to say anything", len(plain))
	}
	if !slices.Equal(plain, grown) {
		t.Errorf("event order differs with Grow: %d events without, %d with", len(plain), len(grown))
	}
	if plainSeq != grownSeq {
		t.Errorf("%d sequence numbers taken without Grow, %d with", plainSeq, grownSeq)
	}
	if !slices.Equal(plainGot, grownGot) {
		t.Errorf("mailbox drained %v without Grow, %v with", plainGot, grownGot)
	}
}

// firingTicker wakes the waiter of one of its signals, round robin,
// every millisecond.
type firingTicker struct {
	task Task
	sigs []*Signal
	n    int
}

func (m *firingTicker) Resume() {
	m.sigs[m.n%len(m.sigs)].Broadcast()
	m.n++
	m.task.Sleep(time.Millisecond)
}

// A deadline-style timeout is armed for every wait and canceled when the
// wait ends well before it: waiters re-arm an hour-long timeout on every
// wake, and a ticker wakes one of them each millisecond, canceling its
// timeout. The canceled entries are compacted out, so the heap never
// holds more than max(minEventPool, 2 × live) entries where it would
// otherwise gather one per wake for the hour; and the arm, cancel and
// step cycle allocates nothing, compactions included.
func TestCanceledTimersCompacted(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	const waiters, steps = 4, 20000
	ws := make([]rearmingWaiter, waiters)
	tick := &firingTicker{}
	for i := range ws {
		ws[i] = rearmingWaiter{s: NewSignal(env), d: time.Hour}
		tick.sigs = append(tick.sigs, ws[i].s)
		env.Spawn(&ws[i].task, &ws[i])
	}
	env.Spawn(&tick.task, tick)
	bound := func() {
		t.Helper()
		live := 0
		for _, ent := range env.events {
			if !env.pool[ent.idx].canceled {
				live++
			}
		}
		if len(env.events) > max(minEventPool, 2*live) {
			t.Fatalf("at %v the heap holds %d entries for %d live ones", env.now, len(env.events), live)
		}
	}
	for i := 0; i < steps; i++ {
		env.Step()
		bound()
	}
	allocs := testing.AllocsPerRun(steps, func() { env.Step() })
	bound()
	if allocs != 0 {
		t.Errorf("arming, canceling and stepping allocates %.2f objects a step, want 0", allocs)
	}
	if env.now < 10*time.Second {
		t.Fatalf("only reached %v: the ticker did not run", env.now)
	}

	// A timer canceled on the ready FIFO is skipped where it stands and
	// never counts toward a heap compaction.
	dead := env.dead
	ran := false
	env.Schedule(0, func() { ran = true }).Cancel()
	if env.dead != dead {
		t.Errorf("canceling a ready entry moved the heap's dead count from %d to %d", dead, env.dead)
	}
	env.Step()
	if ran {
		t.Error("a canceled ready entry ran")
	}
}

// Two chains of zero-delay events that run interleaved within one
// instant keep the ready FIFO never empty; it still runs in the space
// of the events in flight, not of every event the instant executes.
func TestReadyFIFOBoundedWithinAnInstant(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	const n = 10000
	runs := 0
	var chain func()
	chain = func() {
		if runs++; runs < n {
			env.Schedule(0, chain)
		}
	}
	env.Schedule(0, chain)
	env.Schedule(0, chain)
	env.RunAll()
	if runs != n+1 || env.now != 0 {
		t.Fatalf("ran %d events ending at %v, want %d at 0", runs, env.now, n+1)
	}
	if cap(env.ready) > minEventPool {
		t.Errorf("ready FIFO grew to capacity %d for two events in flight", cap(env.ready))
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

// BenchmarkMachineSignalWaitFire measures a blocking receive: a parked
// machine, a wake (a broadcast to its one waiter), a direct resume.
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
		sig.Broadcast()
		env.RunAll()
	}
}

// BenchmarkMachineMailbox measures a Put posting an idle reader that
// drains it — the dominant cycle of every site.
func BenchmarkMachineMailbox(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	m := newDrainReader(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.got = m.got[:0]
		m.mb.Put(i)
		env.RunAll()
	}
}
