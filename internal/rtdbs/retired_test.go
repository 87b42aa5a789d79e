package rtdbs

import (
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// A system forgets a transaction once it is retired: its origin counts
// it and drops it from its list of transactions in flight. The tests
// that read a run's whole history watch those lists instead, step by
// step (watchLists), and read what the run left on them at the end.

// watchLists calls, after every step of env, retired with each
// transaction that left the lists inFlight yields during the step — its
// site retired it — and then listed, if set, with each transaction still
// on them. It takes env's step hook, so a run it watches keeps no
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

// eachInFlight yields every transaction on a client's list: not yet
// retired.
func (c *Cluster) eachInFlight(fn func(*txn.Transaction)) {
	for i := range c.clients {
		for _, t := range c.clients[i].Tracked {
			fn(t)
		}
	}
}

// eachInFlight yields every transaction on a terminal's list: not yet
// retired.
func (ce *ceCore) eachInFlight(fn func(*txn.Transaction)) {
	for k := range ce.terminals {
		for _, t := range ce.terminals[k].tracked {
			fn(t)
		}
	}
}
