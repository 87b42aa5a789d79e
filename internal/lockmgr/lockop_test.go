package lockmgr

import (
	"errors"
	"testing"
	"time"

	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
)

// lock is a step that acquires r through a LockOp, storing the outcome
// in *err.
func lock(tb *Table, r *Request, err *error) simtest.Step {
	var op LockOp
	started := false
	return func(t *sim.Task) bool {
		var done bool
		if !started {
			started = true
			done, *err = op.Start(tb, t, r)
		} else {
			done, *err = op.Step(t)
		}
		return done
	}
}

func do(fn func(t *sim.Task)) simtest.Step {
	return func(t *sim.Task) bool { fn(t); return true }
}

func sleep(d time.Duration) simtest.Step {
	return simtest.Park(func(t *sim.Task) bool { t.Sleep(d); return true })
}

func TestLockWaitImmediateGrant(t *testing.T) {
	env := sim.NewEnv()
	tb := NewTable()
	err := errors.New("not run")
	simtest.Spawn(env, lock(tb, req(1, 1, ModeExclusive, time.Hour), &err))
	env.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 {
		t.Fatal("uncontended lock took time")
	}
}

func TestLockWaitBlocksUntilRelease(t *testing.T) {
	env := sim.NewEnv()
	tb := NewTable()
	var gotAt time.Duration
	var herr, werr error
	simtest.Spawn(env, // holder
		lock(tb, req(1, 1, ModeExclusive, time.Hour), &herr),
		sleep(5*time.Second),
		do(func(*sim.Task) { tb.ReleaseAll(1) }))
	simtest.Spawn(env, // waiter
		sleep(time.Second),
		lock(tb, req(1, 2, ModeExclusive, time.Hour), &werr),
		do(func(task *sim.Task) { gotAt = task.Now() }))
	env.RunAll()
	if herr != nil || werr != nil {
		t.Fatalf("holder: %v, waiter: %v", herr, werr)
	}
	if gotAt != 5*time.Second {
		t.Fatalf("waiter granted at %v, want 5s", gotAt)
	}
}

func TestLockWaitDeadlineExpires(t *testing.T) {
	env := sim.NewEnv()
	tb := NewTable()
	var herr, err error
	simtest.Spawn(env, // holder
		lock(tb, req(1, 1, ModeExclusive, time.Hour), &herr),
		sleep(time.Hour),
		do(func(*sim.Task) { tb.ReleaseAll(1) }))
	simtest.Spawn(env, // waiter
		sleep(time.Second),
		lock(tb, req(1, 2, ModeExclusive, 3*time.Second), &err))
	env.Run(10 * time.Second)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if tb.QueueLen(1) != 0 {
		t.Fatal("expired waiter left in queue")
	}
	env.Close()
}

func TestLockWaitDeadlockRefused(t *testing.T) {
	env := sim.NewEnv()
	tb := NewTable()
	var e1, e2, e3, errB error
	simtest.Spawn(env, // a
		lock(tb, req(1, 1, ModeExclusive, time.Hour), &e1),
		sleep(time.Second),
		lock(tb, req(2, 1, ModeExclusive, time.Hour), &e2))
	simtest.Spawn(env, // b
		lock(tb, req(2, 2, ModeExclusive, time.Hour), &e3),
		sleep(2*time.Second), // let a queue on obj 2 first
		lock(tb, req(1, 2, ModeExclusive, time.Hour), &errB))
	env.Run(5 * time.Second)
	if !errors.Is(errB, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", errB)
	}
	env.Close()
}

func TestManyWaitersServedInDeadlineOrder(t *testing.T) {
	env := sim.NewEnv()
	tb := NewTable()
	var order []OwnerID
	var herr error
	simtest.Spawn(env, // holder
		lock(tb, req(1, 99, ModeExclusive, time.Hour), &herr),
		sleep(time.Second),
		do(func(*sim.Task) { tb.ReleaseAll(99) }))
	deadlines := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, dl := range deadlines {
		owner := OwnerID(i + 1)
		var err error
		simtest.Spawn(env,
			sleep(time.Duration(i+1)*time.Millisecond),
			lock(tb, req(1, owner, ModeExclusive, dl), &err),
			do(func(*sim.Task) {
				if err != nil {
					t.Errorf("waiter %d: %v", owner, err)
					return
				}
				order = append(order, owner)
				tb.ReleaseAll(owner)
			}))
	}
	env.RunAll()
	want := []OwnerID{2, 3, 1}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

// A release landing in the very instant a waiter's deadline expires is
// resolved by event order alone: the grant wins when the release was
// scheduled first, the timeout wins otherwise — and a timed-out waiter
// leaves neither a queue entry nor a lock behind.
func TestLockOpGrantVersusTimeoutSameInstant(t *testing.T) {
	for _, tc := range []struct {
		name string
		naps []time.Duration // holder locks at 0, naps 5s in all, releases
		want error
	}{
		// Holder's wake-up at 5s is queued (at t=0) before the waiter's
		// timeout (queued at t=1s): release, grant, timer canceled.
		{"release-first", []time.Duration{5 * time.Second}, nil},
		// Holder's second nap starts at 2s, so its wake-up at 5s is
		// queued after the waiter's timeout: the timeout runs first.
		{"timeout-first", []time.Duration{2 * time.Second, 3 * time.Second}, ErrDeadline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			tb := NewTable()
			var herr error
			err := errors.New("not run")
			var doneAt time.Duration
			holder := []simtest.Step{lock(tb, req(1, 1, ModeExclusive, time.Hour), &herr)}
			for _, d := range tc.naps {
				holder = append(holder, sleep(d))
			}
			simtest.Spawn(env, append(holder, do(func(*sim.Task) { tb.ReleaseAll(1) }))...)
			simtest.Spawn(env, // waiter, deadline 5s
				sleep(time.Second),
				lock(tb, req(1, 2, ModeExclusive, 5*time.Second), &err),
				do(func(task *sim.Task) { doneAt = task.Now() }))
			env.RunAll()
			if herr != nil || !errors.Is(err, tc.want) {
				t.Fatalf("holder: %v, waiter: %v, want %v", herr, err, tc.want)
			}
			if doneAt != 5*time.Second {
				t.Fatalf("waiter resolved at %v, want 5s", doneAt)
			}
			if tb.QueueLen(1) != 0 {
				t.Fatal("waiter left in queue")
			}
			if hs := holders(tb, 1); tc.want != nil && len(hs) != 0 {
				t.Fatalf("holders after timeout and release = %v", hs)
			}
		})
	}
}

// TestSeqLockOpAcquiresInOrderAndStopsAtFirstFailure: the op takes its
// locks one after another, parking on a held one until it is released,
// and gives up at the first request that fails — keeping what it
// already holds and never issuing the requests after it.
func TestSeqLockOpAcquiresInOrderAndStopsAtFirstFailure(t *testing.T) {
	env := sim.NewEnv()
	tb := NewTable()
	var herr error
	simtest.Spawn(env, // owner 8 holds object 2 for 5 s
		lock(tb, req(2, 8, ModeExclusive, time.Hour), &herr),
		sleep(5*time.Second),
		do(func(*sim.Task) { tb.ReleaseAll(8) }))
	simtest.Spawn(env, // owner 9 holds object 3 for good
		lock(tb, req(3, 9, ModeExclusive, time.Hour), &herr))

	var op SeqLockOp
	op.Init(tb, 4)
	for obj := ObjectID(1); obj <= 4; obj++ {
		op.Add(Request{Obj: obj, Owner: 1, Mode: ModeExclusive, Deadline: 8 * time.Second})
	}
	err := errors.New("not run")
	var doneAt time.Duration
	simtest.Spawn(env,
		sleep(time.Second),
		func(task *sim.Task) bool {
			done, e := op.Step(task)
			if done {
				err, doneAt = e, task.Now()
			}
			return done
		})
	var midway [2]int // at 6 s: the op holds 2 and is queued on 3
	simtest.Spawn(env,
		sleep(6*time.Second),
		do(func(*sim.Task) {
			midway = [2]int{int(tb.HolderMode(2, 1)), tb.QueueLen(3)}
		}))
	env.Run(time.Minute)
	defer env.Close()
	if herr != nil {
		t.Fatal(herr)
	}
	if midway != [2]int{int(ModeExclusive), 1} {
		t.Fatalf("at 6s: object 2 held in mode %d, %d queued on object 3; want %d and 1", midway[0], midway[1], ModeExclusive)
	}
	if !errors.Is(err, ErrDeadline) || doneAt != 8*time.Second {
		t.Fatalf("op ended with %v at %v, want ErrDeadline at 8s", err, doneAt)
	}
	for obj, want := range map[ObjectID]Mode{1: ModeExclusive, 2: ModeExclusive, 3: 0, 4: 0} {
		if got := tb.HolderMode(obj, 1); got != want {
			t.Errorf("object %d held in mode %v, want %v", obj, got, want)
		}
	}
	if tb.QueueLen(3) != 0 {
		t.Error("expired request left in object 3's queue")
	}
}
