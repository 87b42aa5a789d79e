package sim

import (
	"errors"
	"time"
)

// errStopped unwinds a process goroutine when the environment is closed.
var errStopped = errors.New("sim: process stopped")

// Proc is a simulation process: a goroutine scheduled cooperatively by the
// kernel. At most one process runs at any instant; a process runs until it
// blocks on a kernel primitive (Sleep, Wait, Acquire, mailbox Get) or
// returns.
//
// Legacy: model code uses Machine. Outside this package only the
// benchmark driver for sim.proc_switch_ns still calls Go (CI's proc-lint
// step enforces that); this file goes when that metric does.
//
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	env  *Env
	name string
	fn   func(p *Proc)

	// h is the single handoff channel: the kernel and the process
	// alternate strictly, each sending the execution token and then
	// receiving it back, so one unbuffered channel serves both
	// directions (resume and yield).
	h chan struct{}

	// slot is the process's index in the env's spawn-order registry,
	// or -1 while parked for reuse.
	slot int

	// stopping is set by Close before the stop resume is delivered so
	// that blocking calls made from deferred cleanup during unwinding
	// fail fast instead of deadlocking the kernel. stop tells the
	// goroutine to unwind (checked after every resume).
	stopping bool
	stop     bool

	// task carries the process's intrusive wait records for Signal and
	// Resource queues (a blocked process sits in at most one queue, so
	// embedding them makes waiting allocation free) and makes the
	// process a resumable kernel task like any state machine: wakeups
	// land on the task and Resume performs the goroutine handoff.
	task Task
}

// Resume implements Machine for processes: hand the execution token to
// the process goroutine and wait for it to block again or exit.
func (p *Proc) Resume() {
	p.h <- struct{}{}
	<-p.h
}

// Go spawns a new process running fn. The process starts at the current
// virtual time, after events already queued for this instant. The name is
// used in diagnostics only.
//
// Finished processes park their goroutine on the environment's free
// list, so in steady state Go reuses a goroutine and allocates nothing.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go on closed Env")
	}
	var p *Proc
	if n := len(e.freeProcs); n > 0 {
		p = e.freeProcs[n-1]
		e.freeProcs[n-1] = nil
		e.freeProcs = e.freeProcs[:n-1]
	} else {
		p = &Proc{env: e, h: make(chan struct{})}
		p.task.env = e
		p.task.m = p
		p.task.slot = -1
		p.task.wait.t = &p.task
		p.task.rwait.t = &p.task
		go p.loop()
	}
	p.name = name
	p.fn = fn
	p.stopping = false
	p.stop = false
	e.register(p)
	e.scheduleResume(e.now, &p.task)
	return p
}

// loop is the body of a process goroutine. Each iteration waits for the
// execution token, runs one spawned function, and then either parks the
// goroutine for reuse or exits (on stop or model panic).
func (p *Proc) loop() {
	e := p.env
	for {
		<-p.h
		if p.stop {
			// Stopped before the first dispatch (still registered) or
			// while parked on the free list (not registered).
			if p.slot >= 0 {
				e.unregister(p)
			}
			p.h <- struct{}{}
			return
		}
		r := p.run()
		// The kernel is blocked in dispatch (or Close) waiting for
		// this yield, so mutating the registry here is race-free.
		e.unregister(p)
		if r != nil && r != errStopped { //nolint:errorlint // sentinel identity
			p.h <- struct{}{}
			panic(r)
		}
		if r == errStopped { //nolint:errorlint // sentinel identity
			p.h <- struct{}{}
			return
		}
		p.fn = nil
		e.freeProcs = append(e.freeProcs, p)
		p.h <- struct{}{}
	}
}

// run executes the spawned function, converting a panic (including the
// errStopped unwind) into a return value.
func (p *Proc) run() (r any) {
	defer func() { r = recover() }()
	p.fn(p)
	return nil
}

// block yields control to the kernel and waits to be resumed. It panics
// with errStopped when the environment is shutting down.
func (p *Proc) block() {
	if p.stopping {
		panic(errStopped)
	}
	p.h <- struct{}{}
	<-p.h
	if p.stop {
		panic(errStopped)
	}
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Sleep suspends the process for d of virtual time. A non-positive d
// yields the processor for the current instant (other events scheduled now
// still run) and resumes immediately after.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleResume(p.env.now+d, &p.task)
	p.block()
}

// SleepUntil suspends the process until absolute virtual time t. If t is
// in the past it behaves like Sleep(0).
func (p *Proc) SleepUntil(t time.Duration) {
	if t < p.env.now {
		t = p.env.now
	}
	p.env.scheduleResume(t, &p.task)
	p.block()
}

// Go spawns a child process. It is shorthand for Env.Go.
func (p *Proc) Go(name string, fn func(p *Proc)) *Proc {
	return p.env.Go(name, fn)
}
