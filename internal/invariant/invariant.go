// Package invariant implements a continuous invariant monitor for
// simulation runs: a set of named checks evaluated after every executed
// kernel event (via sim.Env.SetStepHook), promoting the end-of-run
// audits scattered through the test suite into properties that hold at
// every step. A violation is recorded with the step count and virtual
// time at which it first appeared, which is the event that introduced
// it — far tighter localization than an end-of-run audit.
//
// The monitor is off by default: attaching it installs the step hook,
// so fault-free golden runs and kernel benchmarks never pay for it. A
// check need not re-read the whole model after every event: the model
// reports each object an event touched to the monitor's list (Touched),
// and a check over that list sees every change, so it costs what the
// event did, not what the model holds. Final sweeps the whole model.
package invariant

import (
	"fmt"
	"sort"

	"siteselect/internal/lockmgr"
	"siteselect/internal/sim"
)

// Check is one named invariant. Fn returns nil while the invariant
// holds. A check whose Fn looks only at what the last event touched
// (Monitor.Touched) sets Full to the same invariant over the whole
// model, which Final runs; without Full, Final runs Fn.
type Check struct {
	Name string
	Fn   func() error
	Full func() error
}

// Monitor runs a check suite against a simulation.
type Monitor struct {
	env    *sim.Env
	checks []Check
	// touched is where the model reports what each event touched; the
	// monitor empties it after every step, a violation or not.
	touched []lockmgr.Touch

	failed error
}

// New returns a monitor over env evaluating the checks after every
// executed event.
func New(env *sim.Env, checks ...Check) *Monitor {
	return &Monitor{env: env, checks: checks}
}

// Touched returns the monitor's list of touched objects, for the model
// to report to (lockmgr.Table.Watch, cache.Cache.Watch) and the checks
// to read. It holds what the event being checked touched.
func (m *Monitor) Touched() *[]lockmgr.Touch { return &m.touched }

// Attach installs the monitor's step hook. Detach with env.SetStepHook(nil).
func (m *Monitor) Attach() {
	m.env.SetStepHook(m.onStep)
}

// onStep is the per-event hook body.
func (m *Monitor) onStep() {
	if m.failed == nil { // keep the first violation; later ones are fallout
		for _, c := range m.checks {
			if err := c.Fn(); err != nil {
				m.failed = fmt.Errorf("invariant %q violated at step %d (t=%v): %w",
					c.Name, m.env.Steps(), m.env.Now(), err)
				break
			}
		}
	}
	m.touched = m.touched[:0]
}

// Final evaluates every check once more, each over the whole model, and
// returns the first violation, including any recorded earlier during
// the run.
func (m *Monitor) Final() error {
	if m.failed != nil {
		return m.failed
	}
	for _, c := range m.checks {
		fn := c.Fn
		if c.Full != nil {
			fn = c.Full
		}
		if err := fn(); err != nil {
			return fmt.Errorf("invariant %q violated at end of run (t=%v): %w",
				c.Name, m.env.Now(), err)
		}
	}
	return nil
}

// Committed tracks the highest committed version per object, fed by the
// clients' commit hooks, and verifies at end of run that no committed
// update was lost: for every object some surviving copy (server page,
// client cache, or recovery log) must carry at least that version.
type Committed struct {
	max map[lockmgr.ObjectID]int64
}

// NewCommitted returns an empty tracker.
func NewCommitted() *Committed {
	return &Committed{max: make(map[lockmgr.ObjectID]int64)}
}

// Observe records a committed write of version v to obj.
func (t *Committed) Observe(obj lockmgr.ObjectID, v int64) {
	if v > t.max[obj] {
		t.max[obj] = v
	}
}

// Objects returns the tracked objects in ascending order.
func (t *Committed) Objects() []lockmgr.ObjectID {
	objs := make([]lockmgr.ObjectID, 0, len(t.max))
	for obj := range t.max {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return objs
}

// Verify checks every tracked object against current, which must return
// the highest version any surviving copy of the object carries.
func (t *Committed) Verify(current func(lockmgr.ObjectID) int64) error {
	for _, obj := range t.Objects() {
		want := t.max[obj]
		if got := current(obj); got < want {
			return fmt.Errorf("invariant: committed update lost on object %d: committed version %d, best surviving copy %d",
				obj, want, got)
		}
	}
	return nil
}
