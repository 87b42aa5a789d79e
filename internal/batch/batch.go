// Package batch implements the server-side request batching layer
// (Config.BatchWindow): firm object requests arriving at the server
// accumulate for one collection window on the simulated clock, then the
// whole batch is resolved in a single pass — every mutually compatible
// lock is granted together, and the server coalesces the resulting
// ships and recalls per destination into single messages.
//
// The Scheduler is deliberately policy-free: it owns only the window
// timing, the flush ordering, and the conservation accounting. What a
// request *becomes* (grant, queue, forward-list join, deny) is decided
// by the sink callback the server installs, which reports the outcome
// back so the Scheduler can prove that every request entering a window
// leaves it exactly once.
//
// A zero window degenerates to a synchronous inline call of the sink
// from Add: no event is scheduled, no state is buffered, and the
// simulation's event sequence is byte-identical to a build without the
// batching layer. This is the equivalence the differential corpus test
// (TestCorpusBatchWindowZero) pins against the scenario goldens.
package batch

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// Request is one firm object request parked in the batch window.
type Request struct {
	Client   netsim.SiteID
	Txn      txn.ID
	Obj      lockmgr.ObjectID
	Mode     lockmgr.Mode
	Deadline time.Duration
	// Enqueued is when the request entered the window (stamped by Add);
	// the sink charges now-Enqueued to the transaction's batch-wait
	// trace sub-bucket.
	Enqueued time.Duration
	seq      uint64
}

// Outcome is the sink's report of what a flushed request became. Every
// request resolves to exactly one outcome; the Scheduler tallies them
// and Audit checks conservation against the entry count.
type Outcome uint8

const (
	// OutDeniedExpired: deadline already passed at service time.
	OutDeniedExpired Outcome = iota
	// OutDupServed: a retransmitted request answered idempotently from
	// existing server state (fault injection only).
	OutDupServed
	// OutListed: joined the object's forward list (load sharing).
	OutListed
	// OutGranted: lock granted, object ship issued.
	OutGranted
	// OutQueued: blocked behind the current holders, callbacks issued.
	OutQueued
	// OutDeniedDeadlock: refused by deadlock avoidance.
	OutDeniedDeadlock
	// OutForwarded: re-routed to the object's home shard — a request
	// reached a shard that no longer (or never) served the object
	// (multi-server topologies only; the home shard resolves it).
	OutForwarded

	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"denied-expired", "dup-served", "listed", "granted", "queued", "denied-deadlock", "forwarded",
}

// String names the outcome for audit reports.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Scheduler collects firm requests per batch window and hands each
// window's batch to the sink in (deadline, arrival) order.
type Scheduler struct {
	env    *sim.Env
	window time.Duration
	sink   func(Request) Outcome

	// BeginFlush/EndFlush, when non-nil, bracket every window close so
	// the server can defer and coalesce the messages the sink produces.
	// They are never called on the zero-window inline path.
	BeginFlush func()
	EndFlush   func()

	// pending is the open window; spare is the other of the two buffers
	// the scheduler alternates between, so a window's requests are
	// appended to an array that already has room. They swap at every
	// flush, before the sink runs: the sink may re-enter Add, and those
	// requests belong to the next window, not the batch being resolved.
	pending []Request
	spare   []Request
	// parked indexes the open window's requests by identity so the
	// retransmission guard (Pending) is O(1) instead of a scan of the
	// window — under lossy runs with wide windows every retransmit
	// probes here. Only a server that retransmissions can reach ever
	// asks, so the index is built by the first Pending call and kept up
	// from then on; a run that never asks never touches a map.
	parked map[requestKey]int
	open   bool
	seq    uint64
	// flushFn is s.flush bound once; taking the method value at every
	// window open would allocate a closure each time.
	flushFn func()

	// Conservation counters (see Audit).
	Entered  int64
	Resolved [numOutcomes]int64
	// Flushes counts window closes; Batched counts requests that shared
	// a window with at least one other request (the batching win).
	Flushes int64
	Batched int64
}

// NewScheduler returns a scheduler delivering to sink. A zero window
// makes Add call sink synchronously and never touch env.
func NewScheduler(env *sim.Env, window time.Duration, sink func(Request) Outcome) *Scheduler {
	s := &Scheduler{env: env, window: window, sink: sink}
	s.flushFn = s.flush
	return s
}

// Window returns the configured batch window.
func (s *Scheduler) Window() time.Duration { return s.window }

// Add routes one firm request through the batching layer. With a zero
// window the sink runs inline before Add returns; otherwise the request
// parks until the window closes (the first request of an idle window
// opens it).
func (s *Scheduler) Add(r Request) {
	s.Entered++
	r.Enqueued = s.env.Now()
	if s.window <= 0 {
		s.Resolved[s.sink(r)]++
		return
	}
	r.seq = s.seq
	s.seq++
	s.pending = append(s.pending, r)
	if s.parked != nil {
		s.parked[requestKey{r.Client, r.Txn, r.Obj}]++
	}
	if !s.open {
		s.open = true
		s.env.Schedule(s.window, s.flushFn)
	}
}

// requestKey is the identity the retransmission guard matches on.
type requestKey struct {
	client netsim.SiteID
	txn    txn.ID
	obj    lockmgr.ObjectID
}

// Pending reports whether an identical request (same client,
// transaction, and object) is already parked in the open window — the
// duplicate-request guard for retransmissions under fault injection:
// the original will be answered when the window closes, so the
// retransmit is dropped instead of entering the window twice.
func (s *Scheduler) Pending(client netsim.SiteID, id txn.ID, obj lockmgr.ObjectID) bool {
	if s.parked == nil {
		s.parked = make(map[requestKey]int)
		for _, r := range s.pending {
			s.parked[requestKey{r.Client, r.Txn, r.Obj}]++
		}
	}
	return s.parked[requestKey{client, id, obj}] > 0
}

// flush closes the window: the batch is resolved through the sink in
// (deadline, arrival) order — the same earliest-deadline-first ordering
// forward lists use — bracketed by BeginFlush/EndFlush so the server
// can coalesce the sends.
func (s *Scheduler) flush() {
	s.open = false
	batch := s.pending
	s.pending, s.spare = s.spare[:0], nil
	clear(s.parked)
	s.Flushes++
	if len(batch) > 1 {
		s.Batched += int64(len(batch))
	}
	slices.SortStableFunc(batch, func(a, b Request) int {
		if c := cmp.Compare(a.Deadline, b.Deadline); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if s.BeginFlush != nil {
		s.BeginFlush()
	}
	for i := range batch {
		s.Resolved[s.sink(batch[i])]++
	}
	if s.EndFlush != nil {
		s.EndFlush()
	}
	s.spare = batch[:0]
}

// Audit verifies request conservation: every request that entered the
// batching layer is either still parked in the open window or was
// resolved to exactly one outcome.
func (s *Scheduler) Audit() error {
	var resolved int64
	for _, n := range s.Resolved {
		resolved += n
	}
	if got := resolved + int64(len(s.pending)); got != s.Entered {
		return fmt.Errorf("batch: conservation violated: %d entered, %d resolved + %d pending",
			s.Entered, resolved, len(s.pending))
	}
	return nil
}
