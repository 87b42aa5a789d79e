package client

import (
	"fmt"
	"slices"
	"time"

	"siteselect/internal/cache"
	"siteselect/internal/config"
	"siteselect/internal/loadshare"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/sim"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
	"siteselect/internal/wal"
)

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// txnMachine runs one transaction (or subtask) lifecycle as an
// event-driven state machine: the Section 4 submit path (decomposition,
// H1 admission, H2 site selection) followed by execution — executor
// slot, local locks, materialization with tentative probes or
// sequential fetches, computation, commit and log force. Each state
// mirrors the corresponding stretch of the earlier blocking coroutine
// between two park points, so the event sequence is identical; the
// deferred unwinds of the coroutine (local-lock release, migration
// forwarding, slot release) become the explicit unwind() in LIFO order.
type txnMachine struct {
	task sim.Task
	c    *Client
	t    *txn.Transaction
	sub  *txn.Subtask
	// origin marks the transaction's originating site (the tentative
	// and ship decisions only apply there); owns marks the context that
	// owns the transaction's status and trace (sub == nil).
	origin bool
	owns   bool
	// reportTo collects a local decomposition subtask's result for the
	// parent's fanout wait.
	reportTo *shipWait
	pc       uint8

	// request/reply exchange state (the blocking awaitReply). pt is the
	// exchange itself — Client.pending and the objects' waiters point at it
	// while it is open (openPending to closePending); a machine holds one
	// exchange at a time, and a transaction has one machine at a site.
	pt        pendingTxn
	awRTO     time.Duration
	awUntil   time.Duration
	awAttempt int
	wait      sim.WaitOp

	// sequential-fetch cursor into missing.
	seqIdx int

	// decomposition fanout: results[i] is subtask i's.
	results []*shipWait
	waitIdx int
	grace   time.Duration

	// execution.
	ops          []txn.Op
	length       time.Duration
	start        time.Duration
	slotHeld     bool
	locksHeld    bool
	lockOps      []txn.Op
	locks        lockmgr.SeqLockOp
	entries      []*cache.Entry
	spec         []specEntry
	specOn       bool
	specFraction float64
	specStart    time.Duration
	lastLSN      int64
	force        wal.ForceOp

	// materialization.
	attempt int
	missing []txn.Op
	scanIdx int
	disk    sim.HoldOp
}

// Transaction machine states.
const (
	tsSubmit uint8 = iota
	tsH1
	tsShipArrive
	tsDecomposeQuery
	tsShipQuery
	tsFanoutWait
	tsExecBegin
	tsSlotWait
	tsSlotHeld
	tsLock
	tsMatBegin
	tsScan
	tsDiskRead
	tsScanDone
	tsProbeWait
	tsCommitWait
	tsSeqSend
	tsSeqWait
	tsMaterialized
	tsRan
	tsForce
	tsCommitDone
	tsDone
)

// Entry modes for spawnTxn.
const (
	enOrigin    uint8 = iota // submitted at this site (full Section 4 path)
	enShipWhole              // whole transaction shipped in by a peer
	enShipSub                // decomposition subtask shipped in by a peer
	enLocalSub               // decomposition subtask run at the origin
)

// Exchange kinds (pendingTxn.kind).
const (
	skLocate uint8 = iota + 1 // where the transaction's objects are, and the candidates' loads
	skProbe                   // tentative all-or-nothing round for the missing objects
	skCommit                  // firm requests for the missing objects
	skSeq                     // firm request for the missing access at seqIdx
)

// spawnTxn starts a transaction machine in the given entry mode, in a
// record of the system's stock: new, or as the site that last ran one in
// it — any site — handed it back. Everything but the vectors' arrays is
// overwritten here, so nothing of that site comes along.
func (c *Client) spawnTxn(t *txn.Transaction, sub *txn.Subtask, entry uint8, reportTo *shipWait) {
	m := c.stock.machines.New()
	*m = txnMachine{
		c: c, t: t, sub: sub, reportTo: reportTo, owns: sub == nil,
		pt:   pendingTxn{waits: m.pt.waits[:0], replies: m.pt.replies[:0]},
		spec: m.spec[:0],
	}
	switch entry {
	case enOrigin:
		m.origin = true
		m.pc = tsSubmit
	case enShipWhole:
		m.pc = tsShipArrive
	default:
		m.pc = tsExecBegin
	}
	c.env.Spawn(&m.task, m)
}

func (m *txnMachine) Resume() {
	for m.pc != tsDone {
		if m.step() {
			return
		}
	}
	m.task.Detach()
	m.c.recycleTxn(m)
}

// recycleTxn clears a finished machine's pointers into its transaction,
// hands the blocks its access-sized vectors took back to the system's
// stock (zeroed, so none pins a retired transaction's entries), and
// hands the machine back with its exchange's arrays. A machine that ran
// a long transaction does not keep a long block through the short ones
// that follow: the next takes blocks of the lengths it needs. The
// remaining fields are overwritten wholesale by the next spawnTxn.
func (c *Client) recycleTxn(m *txnMachine) {
	m.t, m.sub, m.reportTo, m.ops = nil, nil, nil, nil
	m.locks.Drop()
	c.stock.results.Return(m.results)
	c.stock.pins.Return(m.entries)
	c.stock.ops.Return(m.lockOps)
	c.stock.ops.Return(m.missing)
	m.results, m.entries, m.lockOps, m.missing = nil, nil, nil, nil
	c.stock.machines.Keep(m)
}

// step advances the machine by one state; true means it parked.
func (m *txnMachine) step() bool {
	c, t := m.c, m.t
	switch m.pc {
	case tsSubmit:
		// Entry point of the load-sharing algorithm for a transaction
		// initiated at this client (Section 4 pseudocode).
		if c.cfg.UseDecomposition && t.Decomposable {
			m.beginLocate(tsDecomposeQuery)
			return false
		}
		m.pc = tsH1
	case tsH1:
		return m.stepH1()
	case tsShipArrive:
		// The target now owns the trace: the hop from the origin's ship
		// decision to here is network time.
		t.ExecSite = c.id
		c.tr.MarkShipArrived(t.ID, c.id, m.task.Now())
		m.pc = tsExecBegin
	case tsDecomposeQuery, tsShipQuery:
		return m.stepLocate()
	case tsFanoutWait:
		return m.stepFanout()
	case tsExecBegin:
		return m.stepExecBegin()
	case tsSlotWait:
		if m.task.ResTimedOut() {
			if m.owns {
				c.tr.Mark(t.ID, c.id, trace.CompQueue, m.task.Now())
			}
			m.execDone(false)
			return false
		}
		m.pc = tsSlotHeld
	case tsSlotHeld:
		return m.stepSlotHeld()
	case tsLock:
		return m.stepLock()
	case tsMatBegin:
		m.spec, m.specOn, m.specFraction = c.speculationCandidates(m.ops, m.spec[:0])
		m.specStart = m.task.Now()
		m.attempt = 0
		m.missing = m.missing[:0]
		m.scanIdx = 0
		m.pc = tsScan
	case tsScan:
		return m.stepScan()
	case tsDiskRead:
		// An access found in the disk tier reads it from the local disk.
		if done, _ := m.disk.Step(&m.task, c.localDisk, 0, c.cfg.DiskRead, 0); !done {
			return true
		}
		if m.owns {
			c.tr.Mark(t.ID, c.id, trace.CompExec, m.task.Now())
		}
		m.scanIdx++
		m.pc = tsScan
	case tsScanDone:
		return m.stepScanDone()
	case tsProbeWait:
		return m.stepProbeWait()
	case tsCommitWait:
		done, ok := m.awaitStep()
		if !done {
			return true
		}
		if !ok || m.denied() {
			m.fetchFail()
			return false
		}
		m.fetchOK()
	case tsSeqSend:
		return m.stepSeqSend()
	case tsSeqWait:
		done, ok := m.awaitStep()
		if !done {
			return true
		}
		if !ok || m.denied() {
			m.fetchFail()
			return false
		}
		m.seqIdx++
		m.pc = tsSeqSend
	case tsMaterialized:
		return m.stepMaterialized()
	case tsRan:
		m.stepCommit()
	case tsForce:
		if !m.force.Step(&m.task) {
			return true
		}
		m.pc = tsCommitDone
	case tsCommitDone:
		for _, e := range m.entries {
			c.objects.Unpin(e)
		}
		clear(m.entries)
		m.entries = m.entries[:0]
		now := m.task.Now()
		c.atl.Observe(now - m.start)
		if m.owns {
			c.tr.Mark(t.ID, c.id, trace.CompExec, now)
		}
		m.execDone(now <= t.Deadline)
	}
	return false
}

// beginLocate starts a location/load query: register interest, send,
// and arm the reply wait. next is the state that consumes the reply.
func (m *txnMachine) beginLocate(next uint8) {
	m.openPending()
	m.send(skLocate, next)
}

// stepH1 applies the H1 admission heuristic with a concurrent executor
// pool: n waiting transactions drain k at a time, so the expected start
// delay is n·ATL/k. Infeasible transactions ask the server where their
// objects live and how loaded the candidates are (tsShipQuery).
func (m *txnMachine) stepH1() bool {
	c, t := m.c, m.t
	if c.cfg.UseH1 {
		n := c.slots.QueueLen()
		atl := c.atl.Mean() / time.Duration(c.cfg.ClientExecutors)
		feasible := loadshare.H1Feasible(m.task.Now(), n, atl, t.Deadline)
		c.tr.Point(t.ID, c.id, trace.EvH1, 0, int64(n), boolArg(feasible), m.task.Now())
		if !feasible {
			c.m.H1Rejections++
			m.beginLocate(tsShipQuery)
			return false
		}
	}
	m.pc = tsExecBegin
	return false
}

// stepLocate consumes the answer to a location/load query —
// decomposition (tsDecomposeQuery) or the H1-infeasible ship decision
// (tsShipQuery) — and only then closes the exchange the answer's copy
// lives in. With no answer by the deadline the transaction carries on
// as if the query had not been asked.
func (m *txnMachine) stepLocate() bool {
	done, ok := m.awaitStep()
	if !done {
		return true
	}
	c, pt := m.c, &m.pt
	if m.pc == tsDecomposeQuery {
		m.pc = tsH1
		if ok {
			m.tryDecompose(c.locations(pt.replies))
		}
	} else {
		m.pc = tsExecBegin
		if ok {
			m.shipAfterQuery(pt.replies)
		}
	}
	m.closePending()
	return false
}

// shipAfterQuery is the H1-infeasible branch after the load reply: pick
// the most suitable site (H2) and ship, which ends this machine.
// Otherwise the origin remains the best choice (the transaction then
// queues locally anyway).
func (m *txnMachine) shipAfterQuery(replies []shardReply) {
	locs, loads, _ := m.c.h2Inputs(replies)
	if d := m.chooseSite(loadshare.Params{Locations: locs, Loads: loads}); d.Ship {
		m.c.shipTxn(m.t, d.Target)
		m.pc = tsDone
	}
}

// chooseSite evaluates H2 over what a reply reported, which the caller
// has put into p; the origin's own state, the clock and the trace hook
// are filled in here.
func (m *txnMachine) chooseSite(p loadshare.Params) loadshare.Decision {
	c, t := m.c, m.t
	now := m.task.Now()
	p.Origin, p.Now, p.Deadline = c.id, now, t.Deadline
	p.OriginQueueLen, p.OriginATL, p.Executors = c.slots.QueueLen(), c.atl.Mean(), c.cfg.ClientExecutors
	p.Scratch = &c.scratch().choose
	if c.tr.Enabled() {
		p.Trace = func(d loadshare.Decision) {
			c.tr.Point(t.ID, c.id, trace.EvH2, 0, int64(d.Target), boolArg(d.Ship), now)
		}
	}
	return loadshare.ChooseSite(p)
}

// tryDecompose implements Section 3.2 after the location reply: group
// the accesses by caching site and run the groups as independent
// subtasks at those sites. All subtasks must meet the parent deadline
// for the transaction to succeed. A transaction that is not profitably
// decomposable is left as it is (the caller falls through to H1).
func (m *txnMachine) tryDecompose(locations []proto.ObjConflict) {
	c, t := m.c, m.t
	if len(locations) == 0 {
		return
	}
	sc := c.scratch()
	sc.groups.ByLocation(c.id, t.Ops, locations)
	siteOf := sc.groups.Site
	subs := t.Decompose(sc.groups.Of, c.cfg.MaxSubtasks, &sc.parts)
	if subs == nil {
		return
	}
	// Only worth the fan-out risk (every subtask must meet the parent
	// deadline) when each remote materialization covers enough data.
	for _, sub := range subs {
		if siteOf[sub.Index] != c.id && len(sub.Ops) < 2 {
			return
		}
	}
	c.m.DecomposedTxns++
	c.tr.Point(t.ID, c.id, trace.EvDecomposed, 0, int64(len(subs)), 0, m.task.Now())
	m.results = c.stock.results.Fit(m.results, len(subs))[:len(subs)]
	for i := range subs {
		// What runs is a copy: the scratch is the next decision's, and of
		// the many decomposable transactions few end up decomposed.
		part := c.stock.parts.New()
		ops := c.stock.ops.Block(len(subs[i].Ops))
		copy(ops, subs[i].Ops)
		part.sub = txn.Subtask{Index: i, Ops: ops, Length: subs[i].Length}
		sub, w := &part.sub, &part.wait
		c.m.SubtasksRun++
		w.sig.Init(c.env)
		m.results[i] = w
		target := siteOf[sub.Index]
		if target == c.id || c.peer(target) == nil {
			// Local subtask (materialization at the origin).
			c.spawnTxn(t, sub, enLocalSub, w)
			continue
		}
		c.sendTxnShip(target, t, sub)
	}
	enlist(&c.fanouts, m, &c.stock.fanLists)
	// Answer synthesis: every subtask must finish in time for the
	// parent to succeed (the Section 3.2 failure rule).
	m.grace = t.Deadline + c.cfg.MeanSlack
	m.waitIdx = 0
	m.pc = tsFanoutWait
}

// stepFanout waits for every subtask result in turn, each bounded by
// the parent's grace deadline, then synthesizes the answer.
func (m *txnMachine) stepFanout() bool {
	c, t := m.c, m.t
	for m.waitIdx < len(m.results) {
		w := m.results[m.waitIdx]
		done, _ := m.wait.Step(&m.task, &w.sig, m.grace, w.done)
		if !done {
			return true
		}
		m.waitIdx++
	}
	now := m.task.Now()
	c.tr.Mark(t.ID, c.id, trace.CompFanout, now)
	unlist(&c.fanouts, m, &c.stock.fanLists)
	committed := now <= t.Deadline
	for _, w := range m.results {
		if !w.done || !w.committed {
			committed = false
		}
	}
	c.finishParent(t, committed)
	m.pc = tsDone
	return false
}

// stepExecBegin queues for an executor slot in deadline order.
func (m *txnMachine) stepExecBegin() bool {
	c, t := m.c, m.t
	m.ops, m.length = t.Ops, t.Length
	if m.sub != nil {
		m.ops, m.length = m.sub.Ops, m.sub.Length
	}
	now := m.task.Now()
	slack := t.Deadline - now
	if slack <= 0 {
		if m.owns {
			c.tr.Mark(t.ID, c.id, trace.CompQueue, now)
		}
		m.execDone(false)
		return false
	}
	switch m.task.AcquireTimeout(&c.slots, c.priorityOf(t), slack) {
	case sim.AcquireGranted:
		m.pc = tsSlotHeld
		return false
	default:
		m.pc = tsSlotWait
		return true
	}
}

// stepSlotHeld runs the stretch from slot acquisition to the local-lock
// phase.
func (m *txnMachine) stepSlotHeld() bool {
	c, t := m.c, m.t
	m.slotHeld = true
	now := m.task.Now()
	if m.owns {
		c.tr.Mark(t.ID, c.id, trace.CompQueue, now)
		c.tr.Point(t.ID, c.id, trace.EvSlotAcquired, 0, 0, 0, now)
	}
	if now > t.Deadline {
		m.execDone(false)
		return false
	}
	t.Status = txn.StatusRunning
	m.start = now
	if c.localLocks != nil {
		// Serialize concurrent local transactions over the same objects
		// (only active when ClientExecutors > 1), in object order.
		m.lockOps = append(c.stock.ops.Fit(m.lockOps, len(m.ops)), m.ops...)
		slices.SortFunc(m.lockOps, func(a, b txn.Op) int { return int(a.Obj) - int(b.Obj) })
		m.locks.Init(c.localLocks, len(m.lockOps))
		for _, op := range m.lockOps {
			m.locks.Add(lockmgr.Request{Obj: op.Obj, Owner: lockmgr.OwnerID(t.ID), Mode: op.Mode(), Deadline: t.Deadline})
		}
		m.pc = tsLock
		return false
	}
	m.pc = tsMatBegin
	return false
}

// stepLock acquires the local locks one object at a time.
func (m *txnMachine) stepLock() bool {
	c, t := m.c, m.t
	done, err := m.locks.Step(&m.task)
	if !done {
		return true
	}
	if m.owns {
		c.tr.Mark(t.ID, c.id, trace.CompLockWait, m.task.Now())
	}
	if err != nil {
		c.localLocks.ReleaseAll(lockmgr.OwnerID(t.ID))
		m.execDone(false)
		return false
	}
	m.locksHeld = true
	m.pc = tsMatBegin
	return false
}

// stepScan is the materialization presence scan: ensure every access is
// cached with a sufficient lock, charging local-disk time (tsDiskRead)
// for copies that aged to the disk tier, and collect the misses.
func (m *txnMachine) stepScan() bool {
	c := m.c
	for m.scanIdx < len(m.ops) {
		op := m.ops[m.scanIdx]
		e := c.objects.Peek(op.Obj)
		sufficient := e != nil && modeSufficient(e.Mode(), op.Mode())
		if m.attempt == 0 && c.measuring() {
			c.m.RecordCacheAccess(sufficient)
		}
		if !sufficient {
			if len(m.missing) == 0 {
				// The scan's first miss: room for every access at once.
				m.missing = c.stock.ops.Fit(m.missing, len(m.ops))
			}
			m.missing = append(m.missing, op)
			m.scanIdx++
			continue
		}
		tier, evicted := c.objects.Touch(e)
		c.returnEvicted(evicted)
		if tier == cache.TierDisk {
			m.pc = tsDiskRead
			return false
		}
		m.scanIdx++
	}
	m.pc = tsScanDone
	return false
}

// stepScanDone decides the materialization round's outcome: pin the
// full set atomically, or fetch the misses — until the deadline.
func (m *txnMachine) stepScanDone() bool {
	c, t := m.c, m.t
	if len(m.missing) == 0 {
		if c.pinAll(m.ops, &m.entries) {
			m.pc = tsMaterialized
			return false
		}
		// Lost something between presence check and pinning (a blocking
		// disk-tier charge let a recall in). Refetch.
		c.m.Refetches++
		m.nextAttempt()
		return false
	}
	if m.attempt > 0 {
		c.m.Refetches++
	}
	if m.task.Now() > t.Deadline {
		m.execDone(false)
		return false
	}
	m.beginFetch()
	return false
}

// nextAttempt restarts the materialization loop.
func (m *txnMachine) nextAttempt() {
	m.attempt++
	m.missing = m.missing[:0]
	m.scanIdx = 0
	m.pc = tsScan
}

// beginFetch requests the missing objects. At the origin of a
// load-sharing client's first round it sends one tentative probe for
// the whole set; otherwise objects are fetched one at a time (the
// paper's sequential request/response loop — a client keeps at most one
// firm request outstanding).
func (m *txnMachine) beginFetch() {
	c := m.c
	pt := m.openPending()
	if !(c.cfg.UseH2 && m.origin && m.attempt == 0) {
		m.seqIdx = 0
		m.pc = tsSeqSend
		return
	}
	// Tentative probe: one message covering every missing object.
	now := m.task.Now()
	for _, op := range m.missing {
		c.register(pt, op.Obj, op.Mode(), now)
	}
	// A retried probe is idempotent at the server: already-granted locks
	// hit the lock table's re-entrant fast path and the objects ship
	// again over the reliable channel.
	m.send(skProbe, tsProbeWait)
}

// denied resolves a denial reply; it reports true when the fetch must
// fail, recording an abort for deadlock refusals.
func (m *txnMachine) denied() bool {
	pt, t := &m.pt, m.t
	if pt.denied == 0 {
		return false
	}
	if pt.denied == proto.DenyDeadlock {
		t.Status = txn.StatusAborted
		t.Finished = m.task.Now()
	}
	return true
}

// stepProbeWait consumes the tentative round's reply: everything
// granted, denied, or a conflict set that triggers the H2 ship-or-stay
// decision.
func (m *txnMachine) stepProbeWait() bool {
	c, t := m.c, m.t
	done, ok := m.awaitStep()
	if !done {
		return true
	}
	if !ok || m.denied() {
		m.fetchFail()
		return false
	}
	pt := &m.pt
	if !pt.answered {
		m.fetchOK() // everything granted
		return false
	}
	// Tentative round hit conflicts: decide where this transaction
	// should run (H2), then either ship it or commit to local
	// processing.
	pt.answered = false
	conflicts, loads, dataCounts := c.h2Inputs(pt.replies)
	d := m.chooseSite(loadshare.Params{
		Conflicts:          conflicts,
		Loads:              loads,
		DataCounts:         dataCounts,
		RequireImprovement: true,
		// Ship only to a site caching more of this transaction's data
		// than the origin currently does — otherwise the move trades
		// one blocked object for several lost cache hits.
		MinShipData: len(t.Ops) - len(m.missing) + 1,
	})
	pt.replies = c.giveBack(pt.replies) // read; the next answer starts afresh
	if d.Ship {
		c.shipTxn(t, d.Target)
		m.fetchOK() // t.Shipped signals the outcome
		return false
	}
	// Stay local: one commit message asks for everything outstanding.
	// The tentative round granted nothing, so pt.waits and the objects'
	// waiters still hold every missing object — no re-registration. The
	// response clock restarts here: the probe was site-selection
	// control traffic, and this is the firm object request Table 3
	// measures.
	now := m.task.Now()
	for i := range pt.waits {
		pt.waits[i].sent = now
	}
	pt.netAccum = 0
	m.send(skCommit, tsCommitWait)
	return false
}

// stepSeqSend sends the next firm single-object request (a one-access
// commit request).
func (m *txnMachine) stepSeqSend() bool {
	c, t := m.c, m.t
	if m.seqIdx >= len(m.missing) {
		m.fetchOK()
		return false
	}
	if m.task.Now() > t.Deadline {
		m.fetchFail()
		return false
	}
	op := m.missing[m.seqIdx]
	pt := &m.pt
	c.register(pt, op.Obj, op.Mode(), m.task.Now())
	pt.netAccum = 0
	m.send(skSeq, tsSeqWait)
	return false
}

// fetchFail ends a fetch that cannot proceed here (deadline, denial):
// unregister the outstanding waits and fail the execution.
func (m *txnMachine) fetchFail() {
	m.closePending()
	m.execDone(false)
}

// fetchOK ends a successful fetch round: back to the presence scan, or
// — when the H2 decision shipped the transaction away mid-gather — out
// of the execution entirely, with the unwind but no local finish (the
// target owns the status now).
func (m *txnMachine) fetchOK() {
	m.closePending()
	if m.t.Shipped && m.origin {
		m.unwind()
		m.reportResult(false)
		m.pc = tsDone
		return
	}
	m.nextAttempt()
}

// stepMaterialized applies the speculation credit and runs the
// computation.
func (m *txnMachine) stepMaterialized() bool {
	c, t := m.c, m.t
	now := m.task.Now()
	if now > t.Deadline {
		// Late already: abandon rather than burn the executor slot.
		for _, e := range m.entries {
			c.objects.Unpin(e)
		}
		clear(m.entries)
		m.entries = m.entries[:0]
		m.execDone(false)
		return false
	}
	length := m.length
	if m.specOn {
		c.m.SpeculativeRuns++
		if c.speculationValid(m.spec) {
			c.m.SpeculationHits++
			// Only the share of the computation whose data was present
			// could run during the fetch.
			credit := time.Duration(float64(now-m.specStart) * m.specFraction)
			if credit > length {
				credit = length
			}
			length -= credit
		}
	}
	m.pc = tsRan
	m.task.Sleep(length)
	return true
}

// stepCommit applies updates to the cached copies — the entries pinAll
// pinned, in access order — logging each write; the log force (group
// commit) follows in tsForce.
func (m *txnMachine) stepCommit() {
	c := m.c
	m.lastLSN = 0
	for i, op := range m.ops {
		e := m.entries[i]
		if e.Obj != op.Obj {
			panic(fmt.Sprintf("client %d: committed object %d not the pinned entry's %d", c.id, op.Obj, e.Obj))
		}
		if op.Write {
			e.Version++
			c.objects.SetDirty(e, true)
			if c.onCommit != nil {
				c.onCommit(op.Obj, e.Version)
			}
			if c.log != nil {
				m.lastLSN = c.log.Append()
			}
			if c.cfg.WriteThrough && !c.migrating(op.Obj) {
				// Write-through ablation: push the update to the server
				// now (keeping the exclusive lock) instead of holding a
				// dirty copy until a callback.
				c.objects.SetDirty(e, false)
				home := c.homeSite(op.Obj)
				c.sendReturn(home, netsim.ObjectBytes, proto.ObjReturn{
					Client: c.id, Obj: op.Obj, HasData: true, Version: e.Version,
					UpdateOnly: true, Load: c.loadReport(),
				})
			}
		}
	}
	if c.log != nil && m.lastLSN > 0 {
		m.force.Init(c.log, m.lastLSN)
		m.pc = tsForce
		return
	}
	m.pc = tsCommitDone
}

// execDone records the execution's terminal state. finish runs before
// the unwind, exactly as the blocking coroutine's return value was
// evaluated before its defers.
func (m *txnMachine) execDone(committed bool) {
	m.finish(committed)
	m.unwind()
	m.reportResult(committed)
	m.pc = tsDone
}

// unwind releases whatever the execution still holds, in the blocking
// coroutine's defer (LIFO) order: local locks, then migration
// forwarding and deferred recalls, then the executor slot.
func (m *txnMachine) unwind() {
	c, t := m.c, m.t
	if m.locksHeld {
		c.localLocks.ReleaseAll(lockmgr.OwnerID(t.ID))
		m.locksHeld = false
	}
	if m.slotHeld {
		// Whatever way this attempt ended, forward any migrations this
		// transaction came to own and answer recalls deferred on its
		// pins.
		c.afterRelease(m.ops)
		c.slots.Release()
		m.slotHeld = false
	}
}

// reportResult hands a local subtask's outcome to the parent's fanout
// wait.
func (m *txnMachine) reportResult(committed bool) {
	if m.reportTo != nil {
		m.reportTo.report(committed)
	}
}

// send sends the open exchange's request as kind (resend) and begins
// its reply wait (the blocking awaitReply) in state next.
func (m *txnMachine) send(kind, next uint8) {
	m.pt.kind = kind
	m.resend()
	m.awRTO, m.awAttempt = m.c.rto, 1
	m.arm()
	m.pc = next
}

// arm opens the reply wait's next window: the last one ends at the
// deadline, an earlier one at the retransmission timer.
func (m *txnMachine) arm() {
	m.awUntil = m.t.Deadline
	if next := m.task.Now() + m.awRTO; m.c.rto > 0 && next < m.t.Deadline {
		m.awUntil = next
	}
}

// awaitStep waits for the current exchange's condition until the
// transaction's deadline. In fault-free runs (rto == 0) it is exactly
// one bounded wait. Under fault injection it retransmits on an
// exponentially backed-off timer (capped at 8x the base timeout),
// always bounded by the deadline, so a request or reply lost to the
// fault layer is recovered instead of hanging the transaction until
// its deadline. Each completed wait closes into network + lock-wait
// attribution via pt.netAccum; each expired retransmission window
// closes into the retry bucket.
func (m *txnMachine) awaitStep() (done, ok bool) {
	c, t, pt := m.c, m.t, &m.pt
	for {
		d, ok := m.wait.Step(&m.task, &pt.sig, m.awUntil, m.awaitCond())
		if !d {
			return false, false
		}
		if ok || m.awUntil == t.Deadline {
			if m.owns {
				c.tr.MarkWait(t.ID, c.id, m.task.Now(), pt.netAccum)
			}
			pt.netAccum = 0
			return true, ok
		}
		// Retransmission window expired.
		c.Retries++
		if m.owns {
			c.tr.MarkRetry(t.ID, c.id, m.task.Now(), m.awAttempt)
		}
		pt.netAccum = 0
		m.resend()
		m.awAttempt++
		if m.awRTO < 8*c.rto {
			m.awRTO *= 2
		}
		m.arm()
	}
}

// awaitCond evaluates the current exchange's completion predicate.
func (m *txnMachine) awaitCond() bool {
	pt := &m.pt
	switch pt.kind {
	case skLocate:
		return pt.answered
	case skProbe:
		return len(pt.waits) == 0 || pt.denied != 0 || pt.answered
	case skCommit:
		return len(pt.waits) == 0 || pt.denied != 0
	default: // skSeq
		return pt.findWait(m.missing[m.seqIdx].Obj) < 0 || pt.denied != 0
	}
}

// shipTxn sends a whole transaction to target for execution. It does
// not block: the target becomes the single writer of the transaction's
// status, and the TxnResult message back to the origin retires it there
// ("the results of executing the transaction are communicated to the
// originating client").
func (c *Client) shipTxn(t *txn.Transaction, target netsim.SiteID) {
	c.m.ShippedTxns++
	t.Shipped = true
	c.tr.Point(t.ID, c.id, trace.EvShippedTxn, 0, int64(target), 0, c.env.Now())
	c.sendTxnShip(target, t, nil)
}

// sendTxnShip ships t, or its subtask sub, to the client at to.
func (c *Client) sendTxnShip(to netsim.SiteID, t *txn.Transaction, sub *txn.Subtask) {
	p := c.stock.Payloads.TxnShip.New()
	*p = proto.TxnShip{T: t, Sub: sub}
	c.toPeer(to, netsim.KindTxnShip, netsim.TxnShipBytes, p)
}

func (c *Client) sendTxnResult(to netsim.SiteID, r proto.TxnResult) {
	p := c.stock.Payloads.TxnResult.New()
	*p = r
	c.toPeer(to, netsim.KindTxnResult, netsim.ResultBytes, p)
}

func (c *Client) finishParent(t *txn.Transaction, committed bool) {
	if committed {
		t.Status = txn.StatusCommitted
	} else {
		t.Status = txn.StatusMissed
	}
	t.Finished = c.env.Now()
	t.ExecSite = c.id
	c.tr.Finish(t, c.id, c.env.Now())
	c.retire(t)
}

// retire counts t, a transaction generated here that has reached its
// final state, in the system's collector and has the system's maker
// forget it: the site keeps no history. A machine still unwinding t may
// read it; no site writes it again.
func (c *Client) retire(t *txn.Transaction) {
	c.gen.Maker().Forget(t)
	c.m.Retire(t, c.cfg.Warmup)
}

// specEntry records one version a speculative computation is based on.
type specEntry struct {
	obj lockmgr.ObjectID
	ver int64
}

// speculationCandidates decides what part of a transaction can start
// computing before its locks arrive: any access whose data is already in
// the cache (even in a weaker lock mode) can be processed speculatively
// while the misses and upgrades are in flight. It appends the versions
// the speculative computation is based on to buf (machine-owned
// scratch) and returns them, whether speculation applies, and the
// fraction of the access set they cover. Speculation does not apply
// when disabled, nothing is missing (no wait to overlap), or nothing is
// present (no data to compute against).
func (c *Client) speculationCandidates(ops []txn.Op, buf []specEntry) ([]specEntry, bool, float64) {
	if !c.cfg.UseSpeculation {
		return buf, false, 0
	}
	present := buf
	missing := 0
	for _, op := range ops {
		e := c.objects.Peek(op.Obj)
		switch {
		case e == nil:
			missing++
		case modeSufficient(e.Mode(), op.Mode()):
			present = append(present, specEntry{obj: op.Obj, ver: e.Version})
		default:
			missing++ // upgrade in flight, but the data is at hand
			present = append(present, specEntry{obj: op.Obj, ver: e.Version})
		}
	}
	if missing == 0 || len(present) == 0 {
		return present, false, 0
	}
	return present, true, float64(len(present)) / float64(len(ops))
}

// speculationValid checks, after materialization, that every version the
// speculative computation was based on is still the current one.
func (c *Client) speculationValid(spec []specEntry) bool {
	for _, s := range spec {
		e := c.objects.Peek(s.obj)
		if e == nil || e.Version != s.ver {
			return false
		}
	}
	return true
}

// priorityOf maps a transaction to its executor-queue priority: its
// deadline under the paper's ED policy, its arrival time under the FCFS
// baseline.
func (c *Client) priorityOf(t *txn.Transaction) float64 {
	if c.cfg.Scheduling == config.SchedFCFS {
		return t.Arrival.Seconds()
	}
	return t.Deadline.Seconds()
}

// pinAll pins the whole access set atomically (no blocking between
// checks) into *buf, machine-owned scratch. It fails — leaving *buf
// empty and scrubbed — if any object lost presence or mode.
func (c *Client) pinAll(ops []txn.Op, buf *[]*cache.Entry) bool {
	entries := c.stock.pins.Fit(*buf, len(ops))
	for _, op := range ops {
		e := c.objects.Peek(op.Obj)
		if e == nil || !modeSufficient(e.Mode(), op.Mode()) {
			for _, pinned := range entries {
				c.objects.Unpin(pinned)
			}
			clear(entries)
			*buf = entries[:0]
			return false
		}
		c.objects.Pin(e)
		entries = append(entries, e)
	}
	*buf = entries
	return true
}

func modeSufficient(have, need lockmgr.Mode) bool {
	return have == lockmgr.ModeExclusive || need == lockmgr.ModeShared && have == lockmgr.ModeShared
}

// openPending opens the machine's request/reply exchange: from here to
// closePending the replies that name the transaction find it
// (findPending), and grants find it through the waiters of each object's
// record.
func (m *txnMachine) openPending() *pendingTxn {
	c, pt := m.c, &m.pt
	pt.t = m.t
	pt.sig.Init(c.env)
	enlist(&c.pending, pt, &c.stock.pendLists)
	if len(m.t.Ops) > 0 { // a monitor's request conservation rescans the site
		c.objects.Report(m.t.Ops[0].Obj)
	}
	return pt
}

// closePending ends the exchange: the outstanding waits are
// unregistered (their requests stay open), the reply copies go back to
// the pool, and the record is as spawnTxn left it — vectors empty, their
// arrays kept.
func (m *txnMachine) closePending() {
	c, pt := m.c, &m.pt
	for i := range pt.waits {
		c.unregister(pt.waits[i].obj, pt)
	}
	unlist(&c.pending, pt, &c.stock.pendLists)
	*pt = pendingTxn{waits: pt.waits[:0], replies: c.giveBack(pt.replies)}
}

// finish records a terminal state for work executed here: the origin
// retires its own transaction at once, and subtasks and shipped-in
// transactions report the result to the origin.
func (m *txnMachine) finish(committed bool) {
	c, t := m.c, m.t
	now := c.env.Now()
	if m.owns {
		if committed {
			t.Status = txn.StatusCommitted
		} else if t.Status != txn.StatusAborted {
			t.Status = txn.StatusMissed
		}
		t.Finished = now
		t.ExecSite = c.id
		c.tr.Finish(t, c.id, now)
		if t.Origin == c.id {
			c.retire(t)
		} else {
			c.sendTxnResult(t.Origin, proto.TxnResult{
				T: t, SubIndex: -1, Committed: committed,
			})
		}
	} else if t.Origin != c.id {
		c.sendTxnResult(t.Origin, proto.TxnResult{
			T: t, SubIndex: m.sub.Index, IsSub: true, Committed: committed,
		})
	}
}
