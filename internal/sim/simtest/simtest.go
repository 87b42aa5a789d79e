// Package simtest runs test bodies as sim.Machines; for _test.go files only.
package simtest

import "siteselect/internal/sim"

// Step is resumable test code: it runs until it parks the task on one
// primitive and returns false, or finishes and returns true.
type Step func(t *sim.Task) (done bool)

type machine struct {
	task  sim.Task
	steps []Step
}

func (m *machine) Resume() {
	for len(m.steps) > 0 && m.steps[0](&m.task) {
		m.steps = m.steps[1:]
	}
	if len(m.steps) == 0 {
		m.task.Detach()
	}
}

// Spawn starts one machine on env that runs steps in sequence.
func Spawn(env *sim.Env, steps ...Step) {
	m := &machine{steps: steps}
	env.Spawn(&m.task, m)
}

// Park calls arm once; if arm parked the task, the step ends on the next resume.
func Park(arm func(t *sim.Task) (parked bool)) Step {
	armed := false
	return func(t *sim.Task) bool {
		if armed {
			return true
		}
		armed = true
		return !arm(t)
	}
}
