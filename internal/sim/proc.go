package sim

import (
	"errors"
	"time"
)

// errStopped unwinds a process goroutine when the environment is closed.
var errStopped = errors.New("sim: process stopped")

// Proc is a simulation process: a Machine whose body runs on a
// goroutine of its own. Resume hands the execution token to that
// goroutine and waits for it to park again or finish, so at most one
// actor runs at any instant. A process registers and is torn down like
// any machine; its only parking primitive is Sleep.
//
// Legacy: model code uses Machine. Outside this package only the
// benchmark driver for sim.proc_switch_ns still calls Go (CI's proc-lint
// step enforces that); this file goes when that metric does.
type Proc struct {
	task Task
	fn   func(p *Proc)

	// h is the single handoff channel: the kernel and the process
	// alternate strictly, each sending the execution token and then
	// receiving it back, so one unbuffered channel serves both
	// directions (resume and yield).
	h chan struct{}

	// stop is set by Close: the goroutine unwinds on its next resume,
	// and a Sleep from deferred cleanup during the unwind fails fast
	// instead of deadlocking the kernel.
	stop bool
}

// Go spawns a process running fn on a goroutine of its own. The process
// starts at the current virtual time, after events already queued for
// this instant. The name labels the process for the reader only.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{fn: fn, h: make(chan struct{})}
	e.Spawn(&p.task, p)
	go p.run()
	return p
}

// Resume implements Machine: hand the execution token to the process
// goroutine and wait for it to park again or exit.
func (p *Proc) Resume() {
	p.h <- struct{}{}
	<-p.h
}

// MachineClose implements MachineCloser: the process unwinds through
// its deferred calls and its goroutine exits.
func (p *Proc) MachineClose() {
	p.stop = true
	p.Resume()
}

// run is the body of a process goroutine: it waits for the first
// resume, runs fn (unless the environment closed first), detaches the
// task and hands the token back for good. A model panic is re-raised
// after the handback.
func (p *Proc) run() {
	<-p.h
	r := p.call()
	p.task.Detach()
	p.h <- struct{}{}
	if r != nil && r != errStopped { //nolint:errorlint // sentinel identity
		panic(r)
	}
}

// call runs fn, converting a panic (including the errStopped unwind)
// into a return value.
func (p *Proc) call() (r any) {
	defer func() { r = recover() }()
	if !p.stop {
		p.fn(p)
	}
	return nil
}

// Sleep suspends the process for d of virtual time. A non-positive d
// yields the processor for the current instant (other events scheduled now
// still run) and resumes immediately after.
func (p *Proc) Sleep(d time.Duration) {
	if p.stop {
		panic(errStopped)
	}
	p.task.Sleep(d)
	p.h <- struct{}{}
	<-p.h
	if p.stop {
		panic(errStopped)
	}
}
