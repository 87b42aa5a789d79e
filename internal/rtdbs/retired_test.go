package rtdbs

import (
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// A system forgets a transaction once it is retired: its origin counts
// it and the system's maker takes it off its list. The tests that read a
// run's whole history watch that list instead, step by step
// (watchLists), and read what the run left on it at the end.

// watchLists calls, after every step of env, retired with each
// transaction that left the list inFlight yields during the step — its
// site retired it — and then listed, if set, with each transaction still
// on it. It takes env's step hook, so a run it watches keeps no
// invariant monitor.
func watchLists(env *sim.Env, inFlight func(func(*txn.Transaction)), listed, retired func(*txn.Transaction)) {
	onList := map[*txn.Transaction]bool{}
	env.SetStepHook(func() {
		for t := range onList {
			onList[t] = false
		}
		inFlight(func(t *txn.Transaction) {
			onList[t] = true
			if listed != nil {
				listed(t)
			}
		})
		for t, still := range onList {
			if !still {
				delete(onList, t)
				retired(t)
			}
		}
	})
}

// eachInFlight yields every transaction the maker still lists: not yet
// retired, or — once the run is over — left to settle.
func (r *core) eachInFlight(fn func(*txn.Transaction)) {
	for _, t := range r.txns.Listed() {
		fn(t)
	}
}
