// Package txn models real-time database transactions: their access sets,
// timing constraints (arrival, execution length, deadline), lifecycle,
// and decomposition into independently executable subtasks.
package txn

import (
	"fmt"
	"slices"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
)

// ID identifies a transaction uniquely within a run.
type ID int64

// Status is a transaction's lifecycle state.
type Status int

// Transaction lifecycle states.
const (
	// StatusPending means queued, not yet executing.
	StatusPending Status = iota + 1
	// StatusRunning means currently acquiring data or executing.
	StatusRunning
	// StatusCommitted means finished within its deadline.
	StatusCommitted
	// StatusMissed means the deadline passed before completion (dropped
	// from a queue, timed out waiting, or finished late).
	StatusMissed
	// StatusAborted means refused by deadlock detection or another
	// non-deadline failure.
	StatusAborted
)

// String returns a short state name.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusCommitted:
		return "committed"
	case StatusMissed:
		return "missed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Op is one object access.
type Op struct {
	Obj   lockmgr.ObjectID
	Write bool
}

// Mode returns the lock mode the access requires.
func (o Op) Mode() lockmgr.Mode {
	if o.Write {
		return lockmgr.ModeExclusive
	}
	return lockmgr.ModeShared
}

// Transaction is a real-time transaction.
type Transaction struct {
	ID     ID
	Origin netsim.SiteID
	// Arrival is when the transaction was submitted at its origin.
	Arrival time.Duration
	// Deadline is the absolute completion deadline.
	Deadline time.Duration
	// Length is the prescribed execution time (the paper's "processing"
	// phase).
	Length time.Duration
	// Ops lists the distinct objects accessed and whether each is
	// updated.
	Ops []Op
	// Decomposable marks transactions whose object requests can be
	// disassembled and materialized independently (Section 3.2).
	Decomposable bool
	// Shipped marks transactions moved by the load-sharing algorithm.
	// (Beside Decomposable: the two flags share a word.)
	Shipped bool

	Status Status
	// ExecSite is where the transaction ran (its origin unless
	// shipped).
	ExecSite netsim.SiteID
	// Finished is when the transaction reached a terminal state.
	Finished time.Duration
}

// Objects returns the object ids accessed, in Ops order.
func (t *Transaction) Objects() []lockmgr.ObjectID {
	out := make([]lockmgr.ObjectID, len(t.Ops))
	for i, op := range t.Ops {
		out[i] = op.Obj
	}
	return out
}

// IsUpdate reports whether any access writes.
func (t *Transaction) IsUpdate() bool {
	for _, op := range t.Ops {
		if op.Write {
			return true
		}
	}
	return false
}

// MissedAt reports whether the deadline has passed at now.
func (t *Transaction) MissedAt(now time.Duration) bool { return now > t.Deadline }

// Slack returns the remaining time until the deadline (negative when
// missed).
func (t *Transaction) Slack(now time.Duration) time.Duration { return t.Deadline - now }

// Terminal reports whether the transaction reached a final state.
func (t *Transaction) Terminal() bool {
	return t.Status == StatusCommitted || t.Status == StatusMissed || t.Status == StatusAborted
}

// Subtask is one independently executable piece of a decomposed
// transaction (Section 3.2): a subset of the object requests plus a
// proportional share of the processing.
type Subtask struct {
	// Index numbers the subtask, and is the group it was built from.
	Index  int
	Ops    []Op
	Length time.Duration
}

// Decomposition is the memory Decompose works in and returns its
// subtasks from, reusable from one transaction to the next.
type Decomposition struct {
	subs []Subtask
	ops  []Op // every subtask's Ops is a window of it
}

// Decompose splits the transaction into at most maxParts subtasks by
// grouping ops according to groupOf, which gives each op's group by its
// index; groups are numbered from 0 in the order the ops first name them
// (in the system a group stands for the site where the object is cached —
// "data fragmentation" style grouping). Processing time is divided
// proportionally to group size. A transaction that is not Decomposable,
// or whose ops all land in one group, yields nil. The subtasks live in
// d, good until its next use.
func (t *Transaction) Decompose(groupOf []int, maxParts int, d *Decomposition) []Subtask {
	groups := 0
	if len(groupOf) > 0 {
		groups = 1 + slices.Max(groupOf)
	}
	if !t.Decomposable || groups < 2 || maxParts < 2 {
		return nil
	}
	d.subs, d.ops = d.subs[:0], slices.Grow(d.ops[:0], len(t.Ops)) // no window outlives a regrowth
	for g := 0; g < min(groups, maxParts); g++ {
		from := len(d.ops)
		d.ops = appendGroup(d.ops, t.Ops, groupOf, g)
		// The groups past maxParts merge into the first one, after its
		// own ops and last group first.
		for merged := groups - 1; g == 0 && merged >= maxParts; merged-- {
			d.ops = appendGroup(d.ops, t.Ops, groupOf, merged)
		}
		ops := d.ops[from:len(d.ops):len(d.ops)]
		length := time.Duration(float64(t.Length) * float64(len(ops)) / float64(len(t.Ops)))
		d.subs = append(d.subs, Subtask{Index: g, Ops: ops, Length: length})
	}
	return d.subs
}

// appendGroup appends the ops of group g, in access order.
func appendGroup(out, ops []Op, groupOf []int, g int) []Op {
	for i, op := range ops {
		if groupOf[i] == g {
			out = append(out, op)
		}
	}
	return out
}
