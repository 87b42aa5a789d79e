// Package trace records deterministic per-transaction event traces for
// the client-server systems: every transaction carries a timeline of
// typed events (submission, H1/H2 decisions, lock traffic, object
// shipping, migration hops, retries) and a slack attribution that
// splits the interval from arrival to completion into disjoint
// components — executor queueing, lock wait, network transit,
// execution, retransmission windows, and decomposition fan-out.
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
	"time"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
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

var eventNames = map[EventType]string{
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
	if s, ok := eventNames[e]; ok {
		return s
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
	// Events is the timeline in emission order.
	Events []Event

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

// Tracer accumulates per-transaction traces for one simulated run. It
// is single-threaded, like the simulation that feeds it. A nil Tracer
// is inert.
type Tracer struct {
	txns  map[txn.ID]*TxnTrace
	order []*TxnTrace
	// fresh holds traces finished since the last VerifyNewlyClosed
	// drain (the invariant monitor's continuous attribution check).
	fresh []*TxnTrace
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{txns: make(map[txn.ID]*TxnTrace)}
}

// Enabled reports whether tracing is on (the tracer is non-nil).
func (tr *Tracer) Enabled() bool { return tr != nil }

func (tr *Tracer) get(id txn.ID) *TxnTrace {
	if tr == nil {
		return nil
	}
	tt := tr.txns[id]
	if tt == nil || tt.Done {
		return nil
	}
	return tt
}

// Submitted opens a transaction's trace. The attribution chain starts
// at the transaction's scheduled arrival, so submission delay (e.g. an
// outage holding the generator) lands in the first closed bucket.
func (tr *Tracer) Submitted(t *txn.Transaction, site netsim.SiteID, now time.Duration) {
	if tr == nil {
		return
	}
	tt := &TxnTrace{
		ID:       t.ID,
		Origin:   t.Origin,
		Arrival:  t.Arrival,
		Deadline: t.Deadline,
		lastMark: t.Arrival,
		lastComp: CompQueue,
	}
	tr.txns[t.ID] = tt
	tr.order = append(tr.order, tt)
	tt.Events = append(tt.Events, Event{T: now, Type: EvSubmitted, Site: site})
}

// closeInterval attributes [lastMark, now] to comp and advances the
// chain.
func (tt *TxnTrace) closeInterval(site netsim.SiteID, comp Component, now time.Duration) {
	d := now - tt.lastMark
	if d < 0 {
		d = 0
	}
	tt.Buckets[comp] += d
	if d > 0 {
		tt.Events = append(tt.Events, Event{T: tt.lastMark, Dur: d, Type: EvPhase, Comp: comp, Site: site})
	}
	tt.lastMark = now
	tt.lastComp = comp
}

// Mark attributes the interval since the transaction's previous mark to
// comp.
func (tr *Tracer) Mark(id txn.ID, site netsim.SiteID, comp Component, now time.Duration) {
	if tt := tr.get(id); tt != nil {
		tt.closeInterval(site, comp, now)
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
		tt.closeInterval(site, CompNet, tt.lastMark+net)
	}
	if now > tt.lastMark {
		tt.closeInterval(site, CompLockWait, now)
	}
}

// MarkRetry closes an expired retransmission window into the retry
// bucket and records the resend.
func (tr *Tracer) MarkRetry(id txn.ID, site netsim.SiteID, now time.Duration, attempt int) {
	tt := tr.get(id)
	if tt == nil {
		return
	}
	tt.closeInterval(site, CompRetry, now)
	tt.Events = append(tt.Events, Event{T: now, Type: EvRetry, Site: site, A: int64(attempt)})
}

// MarkShipArrived attributes the transit of a shipped transaction to
// the network bucket as it starts at its target site.
func (tr *Tracer) MarkShipArrived(id txn.ID, site netsim.SiteID, now time.Duration) {
	tt := tr.get(id)
	if tt == nil {
		return
	}
	tt.closeInterval(site, CompNet, now)
	tt.Events = append(tt.Events, Event{T: now, Type: EvShipArrived, Site: site})
}

// Finish closes a transaction's trace: the residue since the last mark
// joins the last-marked component (a continuation of whatever the
// transaction was doing), and the trace becomes immutable.
func (tr *Tracer) Finish(t *txn.Transaction, site netsim.SiteID, now time.Duration) {
	tt := tr.get(t.ID)
	if tt == nil {
		return
	}
	tt.closeInterval(site, tt.lastComp, now)
	tt.Status = t.Status
	tt.Finished = now
	tt.Done = true
	tt.Events = append(tt.Events, Event{T: now, Type: EvFinished, Site: site, A: int64(t.Status)})
	tr.fresh = append(tr.fresh, tt)
}

// Point appends a point event to the transaction's timeline.
func (tr *Tracer) Point(id txn.ID, site netsim.SiteID, typ EventType, obj lockmgr.ObjectID, a, b int64, now time.Duration) {
	if tt := tr.get(id); tt != nil {
		tt.Events = append(tt.Events, Event{T: now, Type: typ, Site: site, Obj: obj, A: a, B: b})
	}
}

// AddBatchWait charges d to the transaction's batch-wait sub-bucket and
// records the window-exit event: one request of id sat in the server's
// batch window for d before being served.
func (tr *Tracer) AddBatchWait(id txn.ID, obj lockmgr.ObjectID, d, now time.Duration) {
	if tt := tr.get(id); tt != nil {
		tt.BatchWait += d
		tt.Events = append(tt.Events, Event{T: now, Type: EvBatchWindow, Site: netsim.ServerSite, Obj: obj, A: int64(d)})
	}
}

// VerifyNewlyClosed checks the attribution identity of every trace
// finished since the previous call. The cluster's invariant monitor
// runs it continuously, so an attribution leak is caught at the step
// that introduced it.
func (tr *Tracer) VerifyNewlyClosed() error {
	if tr == nil {
		return nil
	}
	for _, tt := range tr.fresh {
		if err := tt.verify(); err != nil {
			tr.fresh = nil
			return err
		}
	}
	tr.fresh = tr.fresh[:0]
	return nil
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
