// Package trace records deterministic per-transaction event traces for
// the client-server systems: every transaction has a timeline of typed
// events (submission, H1/H2 decisions, lock traffic, object shipping,
// migration hops, retries) and a slack attribution that splits the
// interval from arrival to completion into disjoint components —
// executor queueing, lock wait, network transit, execution,
// retransmission windows, and decomposition fan-out.
//
// A run's events live in one append-only log the Tracer owns, in fixed
// chunks; a transaction's timeline is a chain through that log, and its
// record, carved from a slab, holds no pointers. Recording an event
// allocates nothing but a new chunk every 4 096 events.
//
// Attribution uses closing intervals: each transaction tracks the
// timestamp of its last attributed mark, and every Mark closes the
// interval from that point to now into one component's bucket. The
// intervals tile [Arrival, Finished] with no gaps or overlaps by
// construction, so the per-component buckets always sum exactly to the
// elapsed time — an invariant Verify re-checks for every finished
// transaction (and the cluster's invariant monitor re-checks
// continuously).
//
// A nil *Tracer is valid and inert: every method is a no-op, so
// instrumented call sites need no guards and tracing off costs a nil
// check per emit point.
package trace

import (
	"fmt"
	"math"
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/slab"
	"siteselect/internal/txn"
)

// Component identifies one bucket of a transaction's slack attribution.
type Component uint8

// Attribution components. Every instant of a traced transaction's
// lifetime lands in exactly one.
const (
	// CompQueue is time spent waiting for an executor slot (EDF queue).
	CompQueue Component = iota
	// CompLockWait is time blocked on locks: the remote wait for object
	// grants beyond network transit, and local lock serialization.
	CompLockWait
	// CompNet is message transit time attributable to the transaction's
	// own request/reply exchanges and transaction shipping.
	CompNet
	// CompExec is processing: the prescribed execution length, local
	// disk reads, and the commit log force.
	CompExec
	// CompRetry is time lost to expired retransmission windows under
	// fault injection (the wait segments that ended in a resend).
	CompRetry
	// CompFanout is a decomposed parent's wait for its subtasks.
	CompFanout

	// NumComponents bounds the component enum.
	NumComponents
)

var componentNames = [NumComponents]string{
	"queue", "lock-wait", "network", "exec", "retry", "fanout",
}

// String returns the component's short name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// EventType classifies trace events.
type EventType uint8

// Event types. Phase events are spans (Dur > 0) produced by the
// attribution marks; the rest are point events.
const (
	// EvSubmitted marks transaction submission at its origin.
	EvSubmitted EventType = iota
	// EvH1 records the H1 admission decision: A is the executor queue
	// length, B is 1 if feasible.
	EvH1
	// EvH2 records an H2 site-selection decision: A is the chosen
	// site, B is 1 when the decision was to ship.
	EvH2
	// EvSlotAcquired marks the grant of an executor slot.
	EvSlotAcquired
	// EvLockRequested records a global lock request: A encodes the
	// mode, B the outcome (see lockmgr.Outcome).
	EvLockRequested
	// EvLockGranted records a lock grant reaching the transaction —
	// immediately, via a delayed grant, or served in place by a
	// migration hop.
	EvLockGranted
	// EvLockBlocked records a request queued behind conflicting
	// holders: A is the number of blockers.
	EvLockBlocked
	// EvLockDenied records a denial: A encodes the reason.
	EvLockDenied
	// EvObjectShipped records the server shipping an object copy: A is
	// the destination site.
	EvObjectShipped
	// EvRecall records a server callback sent on the transaction's
	// behalf: A is the holder being recalled.
	EvRecall
	// EvMigrationHop records a client-to-client forward-list hop: A is
	// the next site.
	EvMigrationHop
	// EvListSealed records the transaction's entry travelling in a
	// sealed forward list: A is the list length.
	EvListSealed
	// EvListJoined records a firm request joining an object's forward
	// list instead of the plain lock queue.
	EvListJoined
	// EvDecomposed records a parent fanning out into A subtasks.
	EvDecomposed
	// EvShippedTxn records the whole transaction shipped to site A.
	EvShippedTxn
	// EvShipArrived marks a shipped transaction starting at its target.
	EvShipArrived
	// EvRetry records an expired retransmission window: A is the
	// attempt number.
	EvRetry
	// EvPhase is an attribution span: Comp names the bucket, T..T+Dur
	// the interval.
	EvPhase
	// EvFinished records the terminal state: A encodes txn.Status.
	EvFinished
	// EvBatchWindow records a request leaving the server's batch window
	// (Config.BatchWindow > 0): A is the wait in nanoseconds. The wait
	// accumulates into the trace's BatchWait sub-bucket.
	EvBatchWindow
)

var eventNames = [...]string{
	EvSubmitted:     "submitted",
	EvH1:            "h1-decision",
	EvH2:            "h2-decision",
	EvSlotAcquired:  "slot-acquired",
	EvLockRequested: "lock-requested",
	EvLockGranted:   "lock-granted",
	EvLockBlocked:   "lock-blocked",
	EvLockDenied:    "lock-denied",
	EvObjectShipped: "object-shipped",
	EvRecall:        "recall",
	EvMigrationHop:  "migration-hop",
	EvListSealed:    "list-sealed",
	EvListJoined:    "list-joined",
	EvDecomposed:    "decomposed",
	EvShippedTxn:    "txn-shipped",
	EvShipArrived:   "txn-arrived",
	EvRetry:         "retry",
	EvPhase:         "phase",
	EvFinished:      "finished",
	EvBatchWindow:   "batch-window",
}

// String returns the event type's name.
func (e EventType) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("EventType(%d)", int(e))
}

// Event is one entry of a transaction's timeline, stamped with
// simulated time.
type Event struct {
	// T is the event time; for EvPhase spans it is the interval start
	// and Dur its length.
	T    time.Duration
	Dur  time.Duration
	Type EventType
	// Comp is the attribution bucket of EvPhase spans.
	Comp Component
	// next is the log position of the transaction's following event,
	// plus one; 0 ends the chain. It sits in the padding after Type and
	// Comp, so it costs an Event no bytes.
	next uint32
	// Site is where the event happened (the client site, or
	// netsim.ServerSite for server-side events).
	Site netsim.SiteID
	// Obj is the object involved, when the event concerns one.
	Obj lockmgr.ObjectID
	// A and B carry type-specific arguments (see the EventType docs).
	A, B int64
}

// TxnTrace is one transaction's accumulated trace.
type TxnTrace struct {
	ID       txn.ID
	Origin   netsim.SiteID
	Arrival  time.Duration
	Deadline time.Duration
	// Status and Finished are set when the transaction reaches a
	// terminal state; Done reports that it has.
	Status   txn.Status
	Finished time.Duration
	Done     bool
	// Buckets is the slack attribution: disjoint shares of
	// [Arrival, Finished] per component, summing to Finished−Arrival.
	Buckets [NumComponents]time.Duration
	// BatchWait is a sub-bucket, not a seventh component: the share of
	// the transaction's lifetime its requests spent parked in the
	// server's batch window (Config.BatchWindow > 0). From the client's
	// point of view that time is spent waiting on the grant, so it is
	// already tiled into the lock-wait (or network) bucket by the
	// closing-interval attribution — BatchWait only itemizes it. It is
	// therefore excluded from the sum-to-elapsed identity, and is
	// always zero when batching is off.
	BatchWait time.Duration
	// first and last are the log positions, plus one, of the ends of
	// the transaction's chain of events (Tracer.EachEvent walks it).
	first, last uint32

	// lastMark chains the closing intervals; lastComp remembers the
	// bucket the final residue joins.
	lastMark time.Duration
	lastComp Component
}

// Elapsed returns the transaction's traced lifetime.
func (tt *TxnTrace) Elapsed() time.Duration { return tt.Finished - tt.Arrival }

// DominantCause returns the component holding the largest share of the
// transaction's elapsed time (lowest-numbered component on ties).
func (tt *TxnTrace) DominantCause() Component {
	best := Component(0)
	for c := Component(1); c < NumComponents; c++ {
		if tt.Buckets[c] > tt.Buckets[best] {
			best = c
		}
	}
	return best
}

// verify checks the attribution identity for a finished trace.
func (tt *TxnTrace) verify() error {
	var sum time.Duration
	for _, b := range tt.Buckets {
		if b < 0 {
			return fmt.Errorf("trace: txn %d has negative %v bucket %v", tt.ID, tt.DominantCause(), b)
		}
		sum += b
	}
	if sum != tt.Elapsed() {
		return fmt.Errorf("trace: txn %d attribution %v does not sum to elapsed %v (arrival %v, finished %v)",
			tt.ID, sum, tt.Elapsed(), tt.Arrival, tt.Finished)
	}
	return nil
}

// The event log is cut into chunks of chunkLen events; log position p
// is log[p>>chunkShift][p&chunkMask].
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// Tracer accumulates per-transaction traces for one simulated run. It
// is single-threaded, like the simulation that feeds it. A nil Tracer
// is inert.
type Tracer struct {
	// log holds every event of the run in emission order, n of them; a
	// chunk is made only when the one before it is full.
	log [][]Event
	n   uint32
	// traces carves the transaction records; byID finds them by
	// transaction ID (txn.Maker numbers a system's transactions densely
	// from 1), order keeps them in submission order.
	traces slab.Slab[TxnTrace]
	byID   []*TxnTrace
	order  []*TxnTrace
	// err is the first attribution error of a trace finished since the
	// last VerifyNewlyClosed.
	err error
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether tracing is on (the tracer is non-nil).
func (tr *Tracer) Enabled() bool { return tr != nil }

func (tr *Tracer) get(id txn.ID) *TxnTrace {
	if tr == nil || id < 0 || id >= txn.ID(len(tr.byID)) {
		return nil
	}
	tt := tr.byID[id]
	if tt == nil || tt.Done {
		return nil
	}
	return tt
}

// at returns the event at log position p.
func (tr *Tracer) at(p uint32) *Event { return &tr.log[p>>chunkShift][p&chunkMask] }

// add appends ev to the log and links it to the end of tt's chain.
func (tr *Tracer) add(tt *TxnTrace, ev Event) {
	p := tr.n
	if int(p>>chunkShift) == len(tr.log) {
		if uint64(len(tr.log)+1)<<chunkShift > math.MaxUint32 {
			panic(fmt.Sprintf("trace: event log full at %d events", p))
		}
		tr.log = append(tr.log, make([]Event, chunkLen))
	}
	*tr.at(p) = ev
	if tt.last == 0 {
		tt.first = p + 1
	} else {
		tr.at(tt.last - 1).next = p + 1
	}
	tt.last = p + 1
	tr.n++
}

// EachEvent calls fn with each event of tt's timeline in emission order.
func (tr *Tracer) EachEvent(tt *TxnTrace, fn func(Event)) {
	for p := tt.first; p != 0; {
		ev := *tr.at(p - 1)
		p, ev.next = ev.next, 0
		fn(ev)
	}
}

// Submitted opens a transaction's trace. The attribution chain starts
// at the transaction's scheduled arrival, so submission delay (e.g. an
// outage holding the generator) lands in the first closed bucket.
func (tr *Tracer) Submitted(t *txn.Transaction, site netsim.SiteID, now time.Duration) {
	if tr == nil {
		return
	}
	tt := tr.traces.New()
	*tt = TxnTrace{
		ID:       t.ID,
		Origin:   t.Origin,
		Arrival:  t.Arrival,
		Deadline: t.Deadline,
		lastMark: t.Arrival,
		lastComp: CompQueue,
	}
	for int(t.ID) >= len(tr.byID) {
		tr.byID = append(tr.byID, nil)
	}
	tr.byID[t.ID] = tt
	tr.order = append(tr.order, tt)
	tr.add(tt, Event{T: now, Type: EvSubmitted, Site: site})
}

// closeInterval attributes tt's [lastMark, now] to comp and advances
// lastMark to now.
func (tr *Tracer) closeInterval(tt *TxnTrace, site netsim.SiteID, comp Component, now time.Duration) {
	d := now - tt.lastMark
	if d < 0 {
		d = 0
	}
	tt.Buckets[comp] += d
	if d > 0 {
		tr.add(tt, Event{T: tt.lastMark, Dur: d, Type: EvPhase, Comp: comp, Site: site})
	}
	tt.lastMark = now
	tt.lastComp = comp
}

// Mark attributes the interval since the transaction's previous mark to
// comp.
func (tr *Tracer) Mark(id txn.ID, site netsim.SiteID, comp Component, now time.Duration) {
	if tt := tr.get(id); tt != nil {
		tr.closeInterval(tt, site, comp, now)
	}
}

// MarkWait closes a request/reply wait interval, splitting it into the
// measured network transit (clamped to the interval) and a lock-wait
// remainder — the time the request spent queued or callback-blocked at
// the server beyond pure message time.
func (tr *Tracer) MarkWait(id txn.ID, site netsim.SiteID, now, net time.Duration) {
	tt := tr.get(id)
	if tt == nil {
		return
	}
	d := now - tt.lastMark
	if d <= 0 {
		tt.lastMark = now
		return
	}
	if net < 0 {
		net = 0
	}
	if net > d {
		net = d
	}
	if net > 0 {
		tr.closeInterval(tt, site, CompNet, tt.lastMark+net)
	}
	if now > tt.lastMark {
		tr.closeInterval(tt, site, CompLockWait, now)
	}
}

// MarkRetry closes an expired retransmission window into the retry
// bucket and records the resend.
func (tr *Tracer) MarkRetry(id txn.ID, site netsim.SiteID, now time.Duration, attempt int) {
	tt := tr.get(id)
	if tt == nil {
		return
	}
	tr.closeInterval(tt, site, CompRetry, now)
	tr.add(tt, Event{T: now, Type: EvRetry, Site: site, A: int64(attempt)})
}

// MarkShipArrived attributes the transit of a shipped transaction to
// the network bucket as it starts at its target site.
func (tr *Tracer) MarkShipArrived(id txn.ID, site netsim.SiteID, now time.Duration) {
	tt := tr.get(id)
	if tt == nil {
		return
	}
	tr.closeInterval(tt, site, CompNet, now)
	tr.add(tt, Event{T: now, Type: EvShipArrived, Site: site})
}

// Finish closes a transaction's trace: the residue since the last mark
// joins the last-marked component (a continuation of whatever the
// transaction was doing), and the trace becomes immutable. Its
// attribution identity is checked at once; the first failure waits for
// VerifyNewlyClosed.
func (tr *Tracer) Finish(t *txn.Transaction, site netsim.SiteID, now time.Duration) {
	tt := tr.get(t.ID)
	if tt == nil {
		return
	}
	tr.closeInterval(tt, site, tt.lastComp, now)
	tt.Status = t.Status
	tt.Finished = now
	tt.Done = true
	tr.add(tt, Event{T: now, Type: EvFinished, Site: site, A: int64(t.Status)})
	if err := tt.verify(); err != nil && tr.err == nil {
		tr.err = err
	}
}

// Point appends a point event to the transaction's timeline.
func (tr *Tracer) Point(id txn.ID, site netsim.SiteID, typ EventType, obj lockmgr.ObjectID, a, b int64, now time.Duration) {
	if tt := tr.get(id); tt != nil {
		tr.add(tt, Event{T: now, Type: typ, Site: site, Obj: obj, A: a, B: b})
	}
}

// AddBatchWait charges d to the transaction's batch-wait sub-bucket and
// records the window-exit event: one request of id sat in the server's
// batch window for d before being served.
func (tr *Tracer) AddBatchWait(id txn.ID, obj lockmgr.ObjectID, d, now time.Duration) {
	if tt := tr.get(id); tt != nil {
		tt.BatchWait += d
		tr.add(tt, Event{T: now, Type: EvBatchWindow, Site: netsim.ServerSite, Obj: obj, A: int64(d)})
	}
}

// VerifyNewlyClosed returns the first attribution error of a trace
// finished since the previous call, and forgets it. The cluster's
// invariant monitor runs it continuously, so an attribution leak is
// caught at the step that introduced it.
func (tr *Tracer) VerifyNewlyClosed() error {
	if tr == nil {
		return nil
	}
	err := tr.err
	tr.err = nil
	return err
}

// VerifyAll checks the attribution identity of every finished trace.
func (tr *Tracer) VerifyAll() error {
	if tr == nil {
		return nil
	}
	for _, tt := range tr.order {
		if !tt.Done {
			continue
		}
		if err := tt.verify(); err != nil {
			return err
		}
	}
	return nil
}
