// Package invariant implements a continuous invariant monitor for
// simulation runs: a set of named checks re-evaluated after every
// executed kernel event (via sim.Env.SetStepHook), promoting the
// end-of-run audits scattered through the test suite into properties
// that hold at every step. A violation is recorded with the step count
// and virtual time at which it first appeared, which is the event that
// introduced it — far tighter localization than an end-of-run audit.
//
// The monitor is off by default: attaching it installs the step hook,
// so fault-free golden runs and kernel benchmarks never pay for it.
// Checking every event can be quadratic in model size, so Every
// subsamples the event stream; determinism of the simulation makes even
// a subsampled schedule exactly reproducible.
package invariant

import (
	"fmt"
	"sort"

	"siteselect/internal/lockmgr"
	"siteselect/internal/sim"
)

// Check is one named invariant. Fn returns nil while the invariant
// holds.
type Check struct {
	Name string
	Fn   func() error
}

// Monitor runs a check suite against a simulation.
type Monitor struct {
	env    *sim.Env
	checks []Check
	every  int64
	count  int64

	failed error
}

// New returns a monitor over env evaluating the checks every `every`
// executed events (1 = every event; values < 1 are clamped to 1).
func New(env *sim.Env, every int, checks ...Check) *Monitor {
	if every < 1 {
		every = 1
	}
	return &Monitor{env: env, checks: checks, every: int64(every)}
}

// Attach installs the monitor's step hook. Detach with env.SetStepHook(nil).
func (m *Monitor) Attach() {
	m.env.SetStepHook(m.onStep)
}

// onStep is the per-event hook body.
func (m *Monitor) onStep() {
	if m.failed != nil {
		return // keep the first violation; later ones are fallout
	}
	m.count++
	if m.count%m.every != 0 {
		return
	}
	for _, c := range m.checks {
		if err := c.Fn(); err != nil {
			m.failed = fmt.Errorf("invariant %q violated at step %d (t=%v): %w",
				c.Name, m.env.Steps(), m.env.Now(), err)
			return
		}
	}
}

// Final evaluates every check once more (regardless of the sampling
// interval) and returns the first violation, including any recorded
// earlier during the run.
func (m *Monitor) Final() error {
	if m.failed != nil {
		return m.failed
	}
	for _, c := range m.checks {
		if err := c.Fn(); err != nil {
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
