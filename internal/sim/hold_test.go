package sim_test

import (
	"testing"
	"time"

	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
)

const ms = time.Millisecond

// outcome is what one HoldOp or WaitOp use reported, and when.
type outcome struct {
	at     time.Duration
	ok     bool
	called int // Step calls it took
}

// hold steps op until done and records the outcome in out.
func hold(op *sim.HoldOp, r *sim.Resource, prio float64, d, deadline time.Duration, out *outcome) simtest.Step {
	return func(t *sim.Task) bool {
		out.called++
		done, ok := op.Step(t, r, prio, d, deadline)
		if done {
			out.at, out.ok = t.Now(), ok
		}
		return done
	}
}

// bounded steps op on s until done, re-reading *cond at every call.
func bounded(op *sim.WaitOp, s *sim.Signal, deadline time.Duration, cond *bool, out *outcome) simtest.Step {
	return func(t *sim.Task) bool {
		out.called++
		done, ok := op.Step(t, s, deadline, *cond)
		if done {
			out.at, out.ok = t.Now(), ok
		}
		return done
	}
}

// holdFor holds r for d from the machine's first resume, then parks on
// nothing more.
func holdFor(r *sim.Resource, d time.Duration) simtest.Step {
	var op sim.HoldOp
	var out outcome
	return hold(&op, r, 0, d, 0, &out)
}

func TestHoldOp(t *testing.T) {
	t.Run("free unit", func(t *testing.T) {
		env := sim.NewEnv()
		r := sim.NewResource(env, 1)
		var op sim.HoldOp
		var out outcome
		inUse := -1
		simtest.Spawn(env, hold(&op, r, 0, 5*ms, 0, &out))
		env.At(3*ms, func() { inUse = r.InUse() })
		env.RunAll()
		if out != (outcome{at: 5 * ms, ok: true, called: 2}) || inUse != 1 || r.InUse() != 0 {
			t.Fatalf("outcome %+v, in use %d mid-service and %d after", out, inUse, r.InUse())
		}
	})

	t.Run("busy resource serves in priority order", func(t *testing.T) {
		env := sim.NewEnv()
		r := sim.NewResource(env, 1)
		var ops [3]sim.HoldOp
		var outs [3]outcome
		simtest.Spawn(env, holdFor(r, 10*ms))
		for i, prio := range []float64{3, 1, 2} {
			simtest.Spawn(env, hold(&ops[i], r, prio, 10*ms, 0, &outs[i]))
		}
		env.RunAll()
		for i, want := range []time.Duration{40 * ms, 20 * ms, 30 * ms} {
			if outs[i].at != want || !outs[i].ok {
				t.Errorf("priority %d: %+v, want done at %v", []int{3, 1, 2}[i], outs[i], want)
			}
		}
		if r.InUse() != 0 {
			t.Errorf("%d units held after every service ended", r.InUse())
		}
	})

	t.Run("zero time holds nothing", func(t *testing.T) {
		env := sim.NewEnv()
		r := sim.NewResource(env, 1)
		never := sim.NewSignal(env)
		simtest.Spawn(env, simtest.Park(func(t *sim.Task) bool {
			t.Acquire(r, 0)
			t.Wait(never)
			return true
		}))
		var ops [2]sim.HoldOp
		var outs [2]outcome
		for i, d := range []time.Duration{0, -ms} {
			simtest.Spawn(env, hold(&ops[i], r, 0, d, 0, &outs[i]))
		}
		env.RunAll()
		for i, out := range outs {
			if out != (outcome{ok: true, called: 1}) {
				t.Errorf("d=%v: %+v, want done at once", []time.Duration{0, -ms}[i], out)
			}
		}
		// Two spawns and nothing else: no grant, no sleep.
		if env.Steps() != 3 || r.InUse() != 1 || r.QueueLen() != 0 {
			t.Errorf("%d events, %d held, %d queued; want 3, 1, 0", env.Steps(), r.InUse(), r.QueueLen())
		}
	})

	t.Run("deadline passes in the queue", func(t *testing.T) {
		env := sim.NewEnv()
		r := sim.NewResource(env, 1)
		var late, next sim.HoldOp
		var lateOut, nextOut outcome
		simtest.Spawn(env, holdFor(r, 10*ms))
		simtest.Spawn(env, hold(&late, r, 0, 3*ms, 5*ms, &lateOut))
		simtest.Spawn(env, hold(&next, r, 1, 3*ms, 0, &nextOut))
		var inUse, queued int
		env.At(6*ms, func() { inUse, queued = r.InUse(), r.QueueLen() })
		env.RunAll()
		if lateOut != (outcome{at: 5 * ms, ok: false, called: 2}) {
			t.Errorf("timed-out hold: %+v, want ok=false at 5ms", lateOut)
		}
		if inUse != 1 || queued != 1 {
			t.Errorf("after the timeout %d held, %d queued; want 1, 1", inUse, queued)
		}
		if nextOut.at != 13*ms || !nextOut.ok || r.InUse() != 0 {
			t.Errorf("next waiter: %+v, want served 10ms-13ms", nextOut)
		}
	})

	t.Run("granted at the deadline", func(t *testing.T) {
		env := sim.NewEnv()
		r := sim.NewResource(env, 1)
		var op sim.HoldOp
		var out outcome
		simtest.Spawn(env, holdFor(r, 10*ms))
		simtest.Spawn(env, hold(&op, r, 0, 2*ms, 10*ms, &out))
		env.RunAll()
		if out.at != 12*ms || !out.ok || r.InUse() != 0 {
			t.Errorf("%+v, want the unit granted at 10ms and held to 12ms", out)
		}
	})

	t.Run("idle and reusable after done", func(t *testing.T) {
		env := sim.NewEnv()
		r := sim.NewResource(env, 1)
		var op sim.HoldOp
		var outs [3]outcome
		simtest.Spawn(env, holdFor(r, 10*ms))
		simtest.Spawn(env,
			hold(&op, r, 0, 2*ms, 4*ms, &outs[0]), // times out at 4ms
			hold(&op, r, 0, 2*ms, 0, &outs[1]),    // queues, served 10-12ms
			hold(&op, r, 0, 2*ms, 0, &outs[2]),    // free: 12-14ms
		)
		env.RunAll()
		want := [3]outcome{{4 * ms, false, 2}, {12 * ms, true, 3}, {14 * ms, true, 2}}
		if outs != want {
			t.Errorf("three uses of one op: %+v, want %+v", outs, want)
		}
	})

	t.Run("a hold cycle does not allocate", func(t *testing.T) {
		env := sim.NewEnv()
		r := sim.NewResource(env, 1)
		var ops [2]sim.HoldOp
		for i := range ops {
			op := &ops[i]
			simtest.Spawn(env, func(t *sim.Task) bool {
				for {
					if done, _ := op.Step(t, r, 0, ms, 0); !done {
						return false
					}
				}
			})
		}
		env.Run(10 * ms)
		if n := testing.AllocsPerRun(100, func() { env.Run(env.Now() + ms) }); n != 0 {
			t.Errorf("a hold cycle allocates %v, want 0", n)
		}
	})
}

func TestWaitOp(t *testing.T) {
	t.Run("condition already true", func(t *testing.T) {
		env := sim.NewEnv()
		s := sim.NewSignal(env)
		var op sim.WaitOp
		var out outcome
		cond := true
		simtest.Spawn(env, bounded(&op, s, 10*ms, &cond, &out))
		env.RunAll()
		if out != (outcome{ok: true, called: 1}) || env.Steps() != 1 {
			t.Errorf("%+v after %d events, want ok at once", out, env.Steps())
		}
	})

	t.Run("broadcast with the condition false parks again", func(t *testing.T) {
		env := sim.NewEnv()
		s := sim.NewSignal(env)
		var op sim.WaitOp
		var out outcome
		cond := false
		waiters := -1
		simtest.Spawn(env, bounded(&op, s, 100*ms, &cond, &out))
		env.At(10*ms, s.Broadcast)
		env.At(15*ms, func() { waiters = s.Waiters() })
		env.At(20*ms, func() { cond = true; s.Broadcast() })
		env.RunAll()
		if waiters != 1 || out != (outcome{at: 20 * ms, ok: true, called: 3}) {
			t.Errorf("%+v, %d waiting between the broadcasts; want ok at 20ms, 1", out, waiters)
		}
	})

	t.Run("deadline not after now", func(t *testing.T) {
		env := sim.NewEnv()
		s := sim.NewSignal(env)
		var ops [2]sim.WaitOp
		var outs [2]outcome
		cond := false
		simtest.Spawn(env,
			simtest.Park(func(t *sim.Task) bool { t.Sleep(5 * ms); return true }),
			bounded(&ops[0], s, 5*ms, &cond, &outs[0]),
			bounded(&ops[1], s, 2*ms, &cond, &outs[1]),
		)
		env.RunAll()
		for i, out := range outs {
			if out != (outcome{at: 5 * ms, ok: false, called: 1}) {
				t.Errorf("deadline %v at 5ms: %+v, want done without a park", []time.Duration{5 * ms, 2 * ms}[i], out)
			}
		}
	})

	t.Run("deadline passes", func(t *testing.T) {
		env := sim.NewEnv()
		s := sim.NewSignal(env)
		var op sim.WaitOp
		var out outcome
		cond := false
		simtest.Spawn(env, bounded(&op, s, 10*ms, &cond, &out))
		env.RunAll()
		if out != (outcome{at: 10 * ms, ok: false, called: 2}) || s.Waiters() != 0 {
			t.Errorf("%+v, %d left waiting; want a timeout at 10ms", out, s.Waiters())
		}
	})

	t.Run("condition true in the timeout's instant", func(t *testing.T) {
		env := sim.NewEnv()
		s := sim.NewSignal(env)
		var op sim.WaitOp
		var out outcome
		cond := false
		// Posted before the wait's timeout, so it runs first at 10ms,
		// and wakes no one.
		env.At(10*ms, func() { cond = true })
		simtest.Spawn(env, bounded(&op, s, 10*ms, &cond, &out))
		env.RunAll()
		if out != (outcome{at: 10 * ms, ok: true, called: 2}) {
			t.Errorf("%+v, want ok at 10ms", out)
		}
	})

	t.Run("reusable after a timeout", func(t *testing.T) {
		env := sim.NewEnv()
		s := sim.NewSignal(env)
		var op sim.WaitOp
		var outs [2]outcome
		cond := false
		simtest.Spawn(env,
			bounded(&op, s, 5*ms, &cond, &outs[0]),
			bounded(&op, s, 50*ms, &cond, &outs[1]),
		)
		env.At(20*ms, func() { cond = true; s.Broadcast() })
		env.RunAll()
		want := [2]outcome{{5 * ms, false, 2}, {20 * ms, true, 2}}
		if outs != want {
			t.Errorf("two uses of one op: %+v, want %+v", outs, want)
		}
	})
}
