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

func TestMonitorSamplesEveryNthEvent(t *testing.T) {
	for _, tc := range []struct{ every, events, want int }{
		{1, 10, 10}, {3, 10, 3}, {10, 10, 1}, {11, 10, 0},
		{0, 4, 4}, {-5, 4, 4}, // clamped to every event
	} {
		env := sim.NewEnv()
		calls := 0
		m := New(env, tc.every, Check{Name: "count", Fn: func() error { calls++; return nil }})
		m.Attach()
		tick(env, tc.events)
		env.RunAll()
		if calls != tc.want {
			t.Errorf("every %d over %d events: check ran %d times, want %d", tc.every, tc.events, calls, tc.want)
		}
		if m.failed != nil {
			t.Errorf("every %d: Err = %v on a clean run", tc.every, m.failed)
		}
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
	m := New(env, 1,
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
	m := New(env, 1, Check{Name: "lock-table", Fn: func() error {
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

// TestFinalRunsEveryCheckOnce: Final ignores the sampling interval, runs
// the checks in order and reports the first failing one as an
// end-of-run violation.
func TestFinalRunsEveryCheckOnce(t *testing.T) {
	env := sim.NewEnv()
	var order []string
	fail := false
	check := func(name string) Check {
		return Check{Name: name, Fn: func() error {
			order = append(order, name)
			if fail && name != "first" {
				return fmt.Errorf("%s broke", name)
			}
			return nil
		}}
	}
	m := New(env, 1000, check("first"), check("second"), check("third"))
	m.Attach()
	tick(env, 5)
	env.RunAll()
	if len(order) != 0 {
		t.Fatalf("checks ran %v during a run shorter than the sampling interval", order)
	}
	if err := m.Final(); err != nil {
		t.Fatalf("Final on a clean model: %v", err)
	}
	if fmt.Sprint(order) != "[first second third]" {
		t.Fatalf("Final ran %v, want every check once, in order", order)
	}
	fail = true
	const want = `invariant "second" violated at end of run (t=5ms): second broke`
	if err := m.Final(); err == nil || err.Error() != want {
		t.Fatalf("Final = %v, want %q", err, want)
	}
	if m.failed != nil {
		t.Fatal("Final recorded its finding as a mid-run violation")
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
