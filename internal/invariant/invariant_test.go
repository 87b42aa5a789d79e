package invariant

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/sim"
)

// tick schedules n events a millisecond apart.
func tick(env *sim.Env, n int) {
	for i := 1; i <= n; i++ {
		env.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
}

// TestMonitorKeepsFirstViolation: the violation recorded is the first
// one, stamped with the step and virtual time of the event that
// introduced it; later failures — of that check or of another — do not
// replace it, and no check runs again once one has failed.
func TestMonitorKeepsFirstViolation(t *testing.T) {
	env := sim.NewEnv()
	broken := errors.New("model broken")
	var aCalls, bCalls int
	m := New(env,
		Check{Name: "a", Fn: func() error {
			aCalls++
			if env.Now() >= 3*time.Millisecond {
				return broken
			}
			return nil
		}},
		Check{Name: "b", Fn: func() error { bCalls++; return errors.New("b fails always") }},
	)
	// b fails at the very first event; a, which starts failing at event
	// three, must never replace it.
	m.Attach()
	tick(env, 5)
	env.RunAll()
	const want = `invariant "b" violated at step 1 (t=1ms): b fails always`
	if m.failed == nil || m.failed.Error() != want {
		t.Fatalf("Err = %v, want %q", m.failed, want)
	}
	if aCalls != 1 || bCalls != 1 {
		t.Fatalf("checks ran %d and %d times after the first violation, want once each", aCalls, bCalls)
	}
	if err := m.Final(); err == nil || err.Error() != want {
		t.Fatalf("Final = %v, want the recorded violation %q", err, want)
	}
}

func TestMonitorViolationStepAndTime(t *testing.T) {
	env := sim.NewEnv()
	broken := errors.New("object 5 held incompatibly")
	m := New(env, Check{Name: "lock-table", Fn: func() error {
		if env.Now() >= 3*time.Millisecond {
			return broken
		}
		return nil
	}})
	m.Attach()
	tick(env, 5)
	env.RunAll()
	const want = `invariant "lock-table" violated at step 3 (t=3ms): object 5 held incompatibly`
	if m.failed == nil || m.failed.Error() != want {
		t.Fatalf("Err = %v, want %q", m.failed, want)
	}
	if !errors.Is(m.failed, broken) {
		t.Fatal("the violation does not wrap the check's error")
	}
}

// TestFinalRunsEveryCheckOnce: Final runs each check once, in order —
// its Full sweep where it has one, Fn otherwise — and reports the first
// failing one as an end-of-run violation, without recording it.
func TestFinalRunsEveryCheckOnce(t *testing.T) {
	env := sim.NewEnv()
	var order []string
	fail := false
	check := func(name string) func() error {
		return func() error {
			order = append(order, name)
			if fail && name != "first" {
				return fmt.Errorf("%s broke", name)
			}
			return nil
		}
	}
	m := New(env,
		Check{Name: "first", Fn: check("first")},
		Check{Name: "second", Fn: check("second step"), Full: check("second")},
		Check{Name: "third", Fn: check("third")})
	if err := m.Final(); err != nil {
		t.Fatalf("Final on a clean model: %v", err)
	}
	if fmt.Sprint(order) != "[first second third]" {
		t.Fatalf("Final ran %v, want every check once, in order, the second's full sweep", order)
	}
	fail = true
	const want = `invariant "second" violated at end of run (t=0s): second broke`
	if err := m.Final(); err == nil || err.Error() != want {
		t.Fatalf("Final = %v, want %q", err, want)
	}
	if m.failed != nil {
		t.Fatal("Final recorded its finding as a mid-run violation")
	}
}

// TestMonitorEmptiesTouchedEveryStep: what one event touched is what
// the checks see after it — the list starts empty at the next event,
// and keeps being emptied once a violation has stopped the checks.
func TestMonitorEmptiesTouchedEveryStep(t *testing.T) {
	env := sim.NewEnv()
	var seen []int
	var touched *[]lockmgr.Touch
	m := New(env, Check{Name: "touched", Fn: func() error {
		seen = append(seen, len(*touched))
		if env.Now() >= 3*time.Millisecond {
			return errors.New("broke")
		}
		return nil
	}})
	touched = m.Touched()
	m.Attach()
	for i := 1; i <= 5; i++ {
		env.Schedule(time.Duration(i)*time.Millisecond, func() {
			for k := 0; k < i; k++ {
				*touched = append(*touched, lockmgr.Touch{Site: 1, Obj: lockmgr.ObjectID(k)})
			}
		})
	}
	env.RunAll()
	if fmt.Sprint(seen) != "[1 2 3]" {
		t.Fatalf("the check saw %v touched objects at steps 1-3, want [1 2 3]", seen)
	}
	if len(*touched) != 0 {
		t.Fatalf("%d touched objects left after the last step, want none", len(*touched))
	}
}

func TestCommittedVerify(t *testing.T) {
	c := NewCommitted()
	for _, w := range []struct {
		obj lockmgr.ObjectID
		v   int64
	}{{9, 2}, {3, 1}, {9, 5}, {9, 4}, {30, 7}, {3, 2}} {
		c.Observe(w.obj, w.v)
	}
	if got := fmt.Sprint(c.Objects()); got != "[3 9 30]" {
		t.Fatalf("Objects = %s, want ascending [3 9 30]", got)
	}
	// Every object is checked in ascending order against its highest
	// committed version, not its latest.
	var asked []lockmgr.ObjectID
	surviving := map[lockmgr.ObjectID]int64{3: 2, 9: 5, 30: 8}
	current := func(obj lockmgr.ObjectID) int64 { asked = append(asked, obj); return surviving[obj] }
	if err := c.Verify(current); err != nil {
		t.Fatalf("Verify with every version surviving: %v", err)
	}
	if fmt.Sprint(asked) != "[3 9 30]" {
		t.Fatalf("Verify asked for %v, want ascending [3 9 30]", asked)
	}
	// Two objects lost an update: the report names the lower one.
	surviving[9], surviving[30] = 4, 0
	const want = "invariant: committed update lost on object 9: committed version 5, best surviving copy 4"
	if err := c.Verify(current); err == nil || err.Error() != want {
		t.Fatalf("Verify = %v, want %q", err, want)
	}
	if err := NewCommitted().Verify(current); err != nil {
		t.Fatalf("empty tracker: %v", err)
	}
}
