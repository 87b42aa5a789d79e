package wal

import (
	"testing"
	"time"

	"siteselect/internal/sim"
	"siteselect/internal/sim/simtest"
)

func newLog(env *sim.Env) *Log {
	return New(env, sim.NewResource(env, 1), 10*time.Millisecond)
}

// commit is a step that appends one record for txnID and forces it
// through a ForceOp, storing the record's LSN in *lsn.
func commit(l *Log, txnID int64, lsn *int64) simtest.Step {
	var op ForceOp
	started := false
	return func(t *sim.Task) bool {
		if !started {
			started = true
			*lsn = l.Append(txnID, 7, txnID)
			op.Init(l, txnID, *lsn)
		}
		return op.Step(t)
	}
}

func do(fn func(t *sim.Task)) simtest.Step {
	return func(t *sim.Task) bool { fn(t); return true }
}

func sleep(d time.Duration) simtest.Step {
	return simtest.Park(func(t *sim.Task) bool { t.Sleep(d); return true })
}

func TestAppendAssignsDenseLSNs(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	for i := int64(1); i <= 5; i++ {
		if lsn := l.Append(i, 1, i); lsn != i {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if l.Len() != 5 || l.Appends != 5 {
		t.Fatalf("len=%d appends=%d", l.Len(), l.Appends)
	}
	if l.DurableLSN() != 0 {
		t.Fatal("nothing should be durable before a force")
	}
}

func TestForceMakesDurableAndChargesDisk(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	done := false
	var lsn int64
	simtest.Spawn(env, commit(l, 1, &lsn), do(func(*sim.Task) { done = true }))
	env.RunAll()
	if !done || l.DurableLSN() != 1 {
		t.Fatalf("durable = %d", l.DurableLSN())
	}
	if env.Now() != 10*time.Millisecond {
		t.Fatalf("force took %v, want 10ms", env.Now())
	}
	if l.Forces != 1 {
		t.Fatalf("forces = %d", l.Forces)
	}
}

func TestForceAlreadyDurableIsFree(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	var lsn int64
	var again ForceOp
	checked := false
	simtest.Spawn(env, commit(l, 1, &lsn), do(func(task *sim.Task) {
		before := task.Now()
		again.Init(l, 1, lsn)
		if !again.Step(task) || task.Now() != before { // no-op: done without parking
			t.Error("redundant force took time")
		}
		checked = true
	}))
	env.RunAll()
	if !checked || l.Forces != 1 {
		t.Fatalf("checked=%v forces=%d", checked, l.Forces)
	}
}

// runGroupCommit staggers three committers inside one force and returns
// when each finished.
func runGroupCommit(env *sim.Env, l *Log) []time.Duration {
	finished := make([]time.Duration, 3)
	lsns := make([]int64, 3)
	for i := 0; i < 3; i++ {
		simtest.Spawn(env,
			sleep(time.Duration(i)*time.Millisecond), // stagger within one force
			commit(l, int64(i+1), &lsns[i]),
			do(func(task *sim.Task) { finished[i] = task.Now() }))
	}
	env.RunAll()
	return finished
}

func TestGroupCommit(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	finished := runGroupCommit(env, l)
	// Committer 0 forces alone (covering only itself at t=0); 1 and 2
	// appended during that force and share the second one.
	if l.Forces > 2 {
		t.Fatalf("forces = %d, want group commit to batch (<=2)", l.Forces)
	}
	if l.GroupCommits == 0 {
		t.Fatal("no group commit recorded")
	}
	if l.DurableLSN() != 3 {
		t.Fatalf("durable = %d", l.DurableLSN())
	}
	if finished[1] != finished[2] {
		t.Fatalf("grouped committers finished apart: %v vs %v", finished[1], finished[2])
	}

	// Steady state: the same three committers, round after round. A
	// group commit empties the pending-transaction set in place, so a
	// round allocates nothing (appends to the record slice amortize away).
	const period = 100 * time.Millisecond
	for i := 0; i < 3; i++ {
		var op ForceOp
		id, pc := int64(i+1), 0
		simtest.Spawn(env, func(task *sim.Task) bool {
			for {
				switch pc {
				case 0:
					pc = 1
					task.SleepUntil((task.Now()/period+1)*period + time.Duration(id)*time.Millisecond)
					return false
				case 1:
					op.Init(l, id, l.Append(id, 7, id))
					pc = 2
				default:
					if !op.Step(task) {
						return false
					}
					pc = 0
				}
			}
		})
	}
	env.Run(env.Now() + 3*period)
	before := l.GroupCommits
	allocs := testing.AllocsPerRun(100, func() { env.Run(env.Now() + period) })
	if got := l.GroupCommits - before; got < 100 {
		t.Fatalf("group commits in 101 rounds = %d", got)
	}
	if allocs != 0 {
		t.Fatalf("a group-commit round allocates %v, want 0", allocs)
	}
	env.Close()
}

func TestForcesSerializeOnDisk(t *testing.T) {
	env := sim.NewEnv()
	disk := sim.NewResource(env, 1)
	l := New(env, disk, 10*time.Millisecond)
	other := false
	simtest.Spawn(env,
		simtest.Park(func(task *sim.Task) bool { return !task.Acquire(disk, 0) }),
		sleep(25*time.Millisecond), // unrelated disk work first
		do(func(*sim.Task) {
			disk.Release()
			other = true
		}))
	var commitAt time.Duration
	var lsn int64
	simtest.Spawn(env,
		sleep(time.Millisecond),
		commit(l, 1, &lsn),
		do(func(task *sim.Task) { commitAt = task.Now() }))
	env.RunAll()
	if !other {
		t.Fatal("io machine did not finish")
	}
	if commitAt != 35*time.Millisecond {
		t.Fatalf("force finished at %v, want 35ms (behind the other I/O)", commitAt)
	}
}

// With a group-commit window the leader waits before fixing the force
// target, so committers landing inside the window share its one force.
func TestGroupWindowSharesOneForce(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	l.SetGroupWindow(5 * time.Millisecond)
	finished := runGroupCommit(env, l)
	if l.Forces != 1 || l.GroupCommits != 1 || l.DurableLSN() != 3 {
		t.Fatalf("forces=%d group commits=%d durable=%d, want 1/1/3", l.Forces, l.GroupCommits, l.DurableLSN())
	}
	for i, at := range finished {
		if at != 15*time.Millisecond {
			t.Fatalf("committer %d finished at %v, want 15ms (5ms window + 10ms force)", i, at)
		}
	}
}
