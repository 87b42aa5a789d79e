package server

import (
	"fmt"
	"slices"

	"siteselect/internal/batch"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/pagefile"
	"siteselect/internal/proto"
	"siteselect/internal/sim"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
)

// shipIntent is one decided grant awaiting its ship: the destination
// and the grant as it will travel. The version and epoch are captured
// synchronously with the lock registration the ship delivers — a
// release processed while the page is being read makes the grant
// provably stale at the client.
type shipIntent struct {
	to    netsim.SiteID
	grant proto.ObjGrant
}

// ship sends the object to the client once it has been read through the
// buffer pool (charging disk time on a miss). The read runs in its own
// spawned machine so that grants triggered inside another client's
// connection handler do not stall that handler. During a batch-window
// flush the intent waits for endFlush, which coalesces every grant bound
// for the same destination into one ship; outside one it is the flush
// of one intent.
func (s *Server) ship(obj lockmgr.ObjectID, to netsim.SiteID, mode lockmgr.Mode, id txn.ID, fwd *forward.List) {
	s.GrantsShipped++
	s.tr.Point(id, s.site, trace.EvObjectShipped, obj, int64(to), 0, s.env.Now())
	s.shipIntents = append(s.shipIntents, shipIntent{to: to, grant: proto.ObjGrant{
		Obj: obj, Mode: mode, Version: s.versions[obj], Epoch: s.epochOf(obj, to), Fwd: fwd,
	}})
	if !s.batching {
		s.flushShips()
	}
}

// epochOf returns the release epoch last reported by client for obj.
func (s *Server) epochOf(obj lockmgr.ObjectID, client netsim.SiteID) int64 {
	if o := s.find(obj); o != nil {
		if i, ok := findEpoch(o.epochs, client); ok {
			return o.epochs[i].epoch
		}
	}
	return 0
}

// shipGrants ships every newly granted queued request. Grants whose
// transactions have already missed their deadlines are not shipped (the
// paper's object request scheduling rule); their locks are released,
// which may cascade into further grants.
func (s *Server) shipGrants(grants []*lockmgr.Request) {
	for _, g := range grants {
		if g.Owner == MigrationOwner || isReplicaOwner(g.Owner) {
			// Replica pseudo-requests are only ever registered on a free
			// object, so they never queue; the guard is defensive.
			continue
		}
		if g.Deadline < s.env.Now() {
			// Don't ship 2 KB to a dead transaction; recall the grant
			// instead (the client answers NotCached or returns the
			// copy it was upgrading, and the release then cascades).
			s.DeniesExpired++
			s.recall(g.Obj, netsim.SiteID(g.Owner), false, txn.ID(g.Tag))
			s.reqs.Put(g)
			continue
		}
		s.ship(g.Obj, netsim.SiteID(g.Owner), g.Mode, txn.ID(g.Tag), nil)
		s.reqs.Put(g)
	}
}

// groupable reports whether a firm request for obj must join the
// object's forward list rather than the plain lock queue: the object is
// conflicted now, mid-migration, or already has a list forming.
func (s *Server) groupable(obj lockmgr.ObjectID, client netsim.SiteID, mode lockmgr.Mode) bool {
	if o := s.at(obj); o.inflight != nil || o.sealed != nil || o.open != nil {
		return true
	}
	if len(s.locks.ConflictingHolders(obj, lockmgr.OwnerID(client), mode)) > 0 {
		return true
	}
	return s.locks.QueueLen(obj) > 0
}

// conflictHolders answers the tentative probe: which sites stand between
// this client and obj? For migrating or list-pending objects the paper's
// rule applies — report the last client of the forward list as the
// object's location. The sites are appended to out.
func (s *Server) conflictHolders(out []netsim.SiteID, obj lockmgr.ObjectID, client netsim.SiteID, mode lockmgr.Mode) []netsim.SiteID {
	now := s.env.Now()
	ls, n := s.lists(obj)
	for _, l := range ls[:n] {
		if e, ok := l.Last(now); ok {
			return append(out, e.Client)
		}
	}
	if s.at(obj).inflight != nil {
		// List fully dead but object still out; it belongs to nobody the
		// client could use — report no usable location, but it is still
		// a conflict.
		return append(out, client) // degenerate: treated as "busy"
	}
	for _, h := range s.locks.ConflictingHolders(obj, lockmgr.OwnerID(client), mode) {
		if h != MigrationOwner {
			out = append(out, siteFor(h))
		}
	}
	if len(out) == 0 {
		if w := s.locks.FirstForeignWaiter(obj, lockmgr.OwnerID(client)); w != nil {
			// Compatible with the holders, but an earlier incompatible
			// request is queued: still a conflict. Report the current
			// holders (whoever the queued writer waits on), or the
			// queued requester itself when the object is bare.
			for i, n := 0, s.locks.HolderCount(obj); i < n; i++ {
				h, _ := s.locks.HolderAt(obj, i)
				if h != MigrationOwner && siteFor(h) != client {
					out = append(out, siteFor(h))
				}
			}
			if len(out) == 0 && w.Owner != MigrationOwner {
				out = append(out, siteFor(w.Owner))
			}
		}
	}
	return out
}

// lists returns the object's future-ownership lists — the first n of
// the array — in "latest owner last" order of authority: the list still
// collecting supersedes the sealed list, which supersedes the in-flight
// list.
func (s *Server) lists(obj lockmgr.ObjectID) (ls [3]*forward.List, n int) {
	o := s.at(obj)
	for _, l := range [3]*forward.List{o.open, o.sealed, o.inflight} {
		if l != nil {
			ls[n] = l
			n++
		}
	}
	return ls, n
}

// holdersFor answers location queries: every site currently holding obj
// in any mode (other than the asker), or the forward-list tail for
// objects with queued migrations. The sites are appended to out.
func (s *Server) holdersFor(out []netsim.SiteID, obj lockmgr.ObjectID, asker netsim.SiteID) []netsim.SiteID {
	now := s.env.Now()
	ls, n := s.lists(obj)
	for _, l := range ls[:n] {
		if e, ok := l.Last(now); ok && e.Client != asker {
			return append(out, e.Client)
		}
	}
	for i, n := 0, s.locks.HolderCount(obj); i < n; i++ {
		h, _ := s.locks.HolderAt(obj, i)
		if h == MigrationOwner || siteFor(h) == asker {
			continue
		}
		out = append(out, siteFor(h))
	}
	return out
}

// loadsFor appends to out the known load reports of every site
// mentioned in conflicts, sorted by site for determinism. The site set
// is gathered in reusable scratch (conflict fan-outs are small, so a
// linear dedup beats a per-call map).
func (s *Server) loadsFor(out []proto.LoadReport, conflicts []proto.ObjConflict) []proto.LoadReport {
	sites := s.siteScratch[:0]
	for _, c := range conflicts {
		for _, h := range c.Holders {
			if !slices.Contains(sites, h) {
				sites = append(sites, h)
			}
		}
	}
	slices.Sort(sites)
	s.siteScratch = sites
	for _, site := range sites {
		// A holder may be a replica shard; only clients report loads.
		if c := s.client(site); c != nil && c.load.Valid {
			out = append(out, c.load)
		}
	}
	return out
}

// recallForQueueHead issues callbacks to the holders blocking the
// earliest-deadline queued request (basic client-server path). When that
// request only needs shared access and the modified callback scheme is
// enabled, EL holders are asked to downgrade instead of give up the
// object.
func (s *Server) recallForQueueHead(obj lockmgr.ObjectID) {
	head := s.locks.NextWaiter(obj)
	if head == nil {
		return
	}
	downgrade := head.Mode == lockmgr.ModeShared && s.cfg.UseDowngrade
	forTxn := txn.ID(head.Tag)
	for _, h := range s.locks.ConflictingHolders(obj, head.Owner, head.Mode) {
		if h == MigrationOwner {
			continue
		}
		s.recall(obj, siteFor(h), downgrade, forTxn)
	}
}

// headEntry returns the next forward-list entry due for obj: the sealed
// list dispatches before the still-collecting one.
func (s *Server) headEntry(obj lockmgr.ObjectID) (forward.Entry, bool) {
	now := s.env.Now()
	o := s.at(obj)
	for _, l := range [2]*forward.List{o.sealed, o.open} {
		if l == nil {
			continue
		}
		for _, e := range l.Entries {
			if e.Deadline >= now {
				return e, true
			}
		}
	}
	return forward.Entry{}, false
}

// blockedForHead reports whether any holder other than the head
// requester itself conflicts with the head entry's mode.
func (s *Server) blockedForHead(obj lockmgr.ObjectID, head forward.Entry) bool {
	for i, n := 0, s.locks.HolderCount(obj); i < n; i++ {
		h, mode := s.locks.HolderAt(obj, i)
		if h == MigrationOwner || siteFor(h) == head.Client {
			continue
		}
		if !lockmgr.Compatible(head.Mode, mode) {
			return true
		}
	}
	return false
}

// recallForMigration recalls the holders standing in the way of obj's
// next forward-list entry. A reader at the head only needs EL holders to
// downgrade (existing shared copies can stay); a writer at the head
// needs every other copy back in full. The head requester's own cached
// copy is never recalled — it is about to be served in place.
func (s *Server) recallForMigration(obj lockmgr.ObjectID) {
	head, ok := s.headEntry(obj)
	if !ok {
		return
	}
	downgrade := head.Mode == lockmgr.ModeShared && s.cfg.UseDowngrade
	for i, n := 0, s.locks.HolderCount(obj); i < n; i++ {
		h, mode := s.locks.HolderAt(obj, i)
		if h == MigrationOwner || siteFor(h) == head.Client {
			continue
		}
		if lockmgr.Compatible(head.Mode, mode) {
			continue // compatible with the head; deeper entries recall later
		}
		s.recall(obj, siteFor(h), downgrade, head.Txn)
	}
}

// recall sends a callback to holder for obj; forTxn names the waiting
// transaction the callback serves (zero when none, e.g. stray-copy
// invalidation), recorded on its trace.
func (s *Server) recall(obj lockmgr.ObjectID, holder netsim.SiteID, downgrade bool, forTxn txn.ID) {
	o := s.rec(obj)
	if *s.recallLink(o, holder) != 0 {
		return
	}
	s.addRecall(o, holder)
	s.RecallsSent++
	s.tr.Point(forTxn, s.site, trace.EvRecall, obj, int64(holder), 0, s.env.Now())
	// During a batch-window flush the send waits for endFlush, which
	// coalesces every callback bound for the same holder into one
	// message; the holder-mode snapshot is taken here, synchronously with
	// the decision.
	s.recallIntents = append(s.recallIntents, recallIntent{holder: holder, recall: proto.Recall{
		Obj:               obj,
		DowngradeToShared: downgrade,
		HolderMode:        s.locks.HolderMode(obj, ownerFor(holder)),
	}})
	if !s.batching {
		s.flushRecalls()
	}
}

// recallIntent is one decided callback awaiting its send.
type recallIntent struct {
	holder netsim.SiteID
	recall proto.Recall
}

// beginFlush enters deferral mode for the duration of a batch-window
// flush: ship and recall leave their intents pending instead of
// flushing them at once.
func (s *Server) beginFlush() { s.batching = true }

// endFlush leaves deferral mode and sends the flush's coalesced ships
// and recalls, grouped per destination in first-decision order.
func (s *Server) endFlush() {
	s.batching = false
	s.flushShips()
	s.flushRecalls()
}

// eachGroup partitions the indices 0..n-1 by destination and calls emit
// once per destination, in first-appearance order, with the indices
// bound for it (in order; the slice is good until emit returns). The
// grouping is a mark pass: the fan-out of a flush is small, so the
// quadratic scan stays cheap and no per-flush map is built.
func (s *Server) eachGroup(n int, dest func(int) netsim.SiteID, emit func(to netsim.SiteID, members []int)) {
	mark := s.flushMark[:0]
	for i := 0; i < n; i++ {
		mark = append(mark, false)
	}
	members := s.flushGroup
	for i := 0; i < n; i++ {
		if mark[i] {
			continue
		}
		to := dest(i)
		members = append(members[:0], i)
		for j := i + 1; j < n; j++ {
			if !mark[j] && dest(j) == to {
				members = append(members, j)
				mark[j] = true
			}
		}
		emit(to, members)
	}
	s.flushMark, s.flushGroup = mark, members
}

// flushShips sends the pending ship intents, one ship machine per
// destination: it walks every page of its group through the pool
// (requests for the same page share the read) and sends a single
// message. The group's grants are copied into that message's record now
// (the machine parks on page reads and outlives the flush), so the
// intent buffer itself is reusable.
func (s *Server) flushShips() {
	intents := s.shipIntents
	s.eachGroup(len(intents), func(i int) netsim.SiteID { return intents[i].to },
		func(to netsim.SiteID, members []int) {
			m := s.ships.New()
			m.s, m.to, m.msg, m.pages = s, to, s.payloads.GrantMsg.New(), m.pages[:0]
			for _, i := range members {
				m.msg.Grants = append(m.msg.Grants, intents[i].grant)
				m.pages = append(m.pages, pagefile.PageID(intents[i].grant.Obj))
			}
			m.get.Init(s.pool, m.pages)
			s.env.Spawn(&m.task, m)
		})
	clear(intents) // drop forward-list pointers before reuse
	s.shipIntents = intents[:0]
}

// flushRecalls sends the pending callbacks, one message per holder.
func (s *Server) flushRecalls() {
	intents := s.recallIntents
	s.eachGroup(len(intents), func(i int) netsim.SiteID { return intents[i].holder },
		func(to netsim.SiteID, members []int) {
			msg := s.payloads.RecallMsg.New()
			for _, i := range members {
				msg.Recalls = append(msg.Recalls, intents[i].recall)
			}
			s.send(to, netsim.KindRecall, len(members)*netsim.ControlBytes, msg)
		})
	s.recallIntents = intents[:0]
}

// batchShipMachine is the asynchronous half of a ship: read every page of
// the grants bound for one destination through the pool in sequence,
// send the message that carries them, then detach and go back to the
// shard's slab with its page buffer, so steady-state ships allocate
// nothing.
type batchShipMachine struct {
	task sim.Task
	s    *Server
	get  pagefile.MultiGetOp
	to   netsim.SiteID
	msg  *proto.GrantMsg
	// pages is a machine-owned buffer refilled per ship.
	pages []pagefile.PageID
}

func (m *batchShipMachine) Resume() {
	done, err := m.get.Step(&m.task)
	if !done {
		return
	}
	if err != nil {
		panic(fmt.Sprintf("server: reading ships for site %d: %v", m.to, err))
	}
	s := m.s
	s.send(m.to, netsim.KindObjectShip, len(m.msg.Grants)*netsim.ObjectBytes, m.msg)
	m.task.Detach()
	m.msg = nil
	s.ships.Keep(m)
}

// seal closes obj's collection window, when the collector's clock says
// so or early from tryDispatch: the open list is sealed — merged into
// any still-undelivered predecessor — and dispatch is tried.
func (s *Server) seal(obj lockmgr.ObjectID) {
	o := s.rec(obj)
	l := o.open
	if l == nil {
		return
	}
	o.open = nil
	if s.tr != nil {
		now := s.env.Now()
		for _, e := range l.Entries {
			s.tr.Point(e.Txn, s.site, trace.EvListSealed, obj, int64(l.Len()), 0, now)
		}
	}
	if o.sealed != nil {
		for _, e := range l.Entries {
			o.sealed.Insert(e)
		}
	} else {
		o.sealed = l
	}
	s.locks.Report(obj)
	s.tryDispatch(obj)
}

// tryDispatch starts the sealed forward list's migration if the object
// is free: lock it for the migration pseudo-owner and ship it to the
// first live entry together with the remaining list. Single-entry lists
// degenerate to a normal grant. When the object is already free but the
// collection window is still open, the window is sealed early — batching
// only pays while the object is out.
func (s *Server) tryDispatch(obj lockmgr.ObjectID) {
	if s.at(obj).inflight != nil {
		return
	}
	head, ok := s.headEntry(obj)
	if ok && s.blockedForHead(obj, head) {
		s.recallForMigration(obj)
		return
	}
	if s.at(obj).sealed == nil {
		if ok {
			// The head entry can go: seal the window early (re-enters
			// tryDispatch with a sealed list). Its clock still fires at
			// the old time, and seals whatever list is open by then.
			s.seal(obj)
		}
		return
	}
	o := s.rec(obj)
	l := o.sealed
	now := s.env.Now()
	run := l.PopRun(s.runScratch[:0], now)
	s.runScratch = run
	if len(run) == 0 {
		o.sealed = nil
		return
	}
	if l.Len() == 0 {
		o.sealed = nil
	}

	if run[0].Mode == lockmgr.ModeShared || len(run) == 1 {
		// A shared run is served in parallel (the forward list's
		// parallel read-only annotation); a lone writer is a plain
		// grant. Either way every recipient becomes an ordinary
		// registered holder immediately. A member that a holder at
		// another site conflicts with — the head's own EL, say, which
		// does not block the head — cannot be granted yet: it goes back
		// on the sealed list, and the recall below chases that holder.
		kept := run[:0]
		for _, e := range run {
			if s.blockedForHead(obj, e) {
				l.Insert(e)
				o.sealed = l
			} else {
				kept = append(kept, e)
			}
		}
		run = kept
		for _, e := range run {
			lr := s.reqs.New()
			lr.Obj, lr.Owner = obj, lockmgr.OwnerID(e.Client)
			lr.Mode, lr.Deadline, lr.Tag = e.Mode, e.Deadline, int64(e.Txn)
			outcome, _ := s.locks.Lock(lr)
			if outcome != lockmgr.Granted {
				panic("server: free object grant failed at dispatch")
			}
			s.reqs.Put(lr)
		}
		if len(run) == 1 {
			s.ship(obj, run[0].Client, run[0].Mode, run[0].Txn, nil)
		} else {
			// One copy leaves the server and hops down the run
			// client-to-client; each reader keeps its copy. The object
			// is marked in flight until the last member acknowledges
			// (the list's final return), so no recall can cross a hop
			// still on the wire.
			hop := forward.NewList(obj)
			hop.ReadRun = true
			for _, e := range run[1:] {
				e.Epoch = s.epochOf(obj, e.Client)
				hop.Insert(e)
			}
			o.inflight = hop.Clone()
			s.locks.Report(obj)
			s.ship(obj, run[0].Client, run[0].Mode, run[0].Txn, hop)
		}
		if o.sealed != nil {
			// More entries (a writer behind the readers): recall the
			// copies once their transactions finish.
			s.recallForMigration(obj)
		}
		return
	}

	// An exclusive pipeline: the object hops writer to writer and
	// returns to the server after the last one.
	first := run[0]
	chain := forward.NewList(obj)
	for _, e := range run[1:] {
		e.Epoch = s.epochOf(obj, e.Client)
		chain.Insert(e)
	}
	// A shared copy cached by the first writer is superseded by the
	// migration grant it is about to receive.
	s.locks.Release(obj, lockmgr.OwnerID(first.Client))
	lr := s.reqs.New()
	lr.Obj, lr.Owner = obj, MigrationOwner
	lr.Mode, lr.Deadline, lr.Tag = lockmgr.ModeExclusive, first.Deadline, int64(first.Txn)
	outcome, _ := s.locks.Lock(lr)
	if outcome != lockmgr.Granted {
		panic("server: migration lock failed at dispatch")
	}
	s.reqs.Put(lr)
	s.MigrationsStarted++
	o.inflight = chain
	s.locks.Report(obj)
	s.ship(obj, first.Client, first.Mode, first.Txn, chain.Clone())
}

// AuditLocks verifies the global lock table invariants.
func (s *Server) AuditLocks() error { return s.locks.Audit() }

// AuditLock verifies them on obj's entry alone.
func (s *Server) AuditLock(obj lockmgr.ObjectID) error { return s.locks.AuditObject(obj) }

// Watch makes the shard report to touched, under its site, every object
// whose lock-table entry changes (lockmgr.Table.Watch) or whose forward
// lists it adds to or replaces.
func (s *Server) Watch(touched *[]lockmgr.Touch) { s.locks.Watch(int(s.site), touched) }

// AuditBatch verifies request conservation through the batching layer:
// every firm request that entered a batch window is either still parked
// in the open window or left it as exactly one grant, queue entry,
// forward-list join, or deny.
func (s *Server) AuditBatch() error { return s.batcher.Audit() }

// Batcher exposes the batch scheduler for metrics and audits.
func (s *Server) Batcher() *batch.Scheduler { return s.batcher }

// AuditForward verifies the structural invariants of every forward list
// the server tracks — still collecting, sealed, and in flight — and
// returns the violation on the lowest-numbered object. The records are
// walked in the order they were carved, in place: a record without a
// list — nearly all of them — costs three loads.
func (s *Server) AuditForward() error {
	var first error
	var firstObj lockmgr.ObjectID
	for _, chunk := range s.objChunks {
		for i := range chunk {
			if obj, err := chunk[i].auditLists(); err != nil && (first == nil || obj < firstObj) {
				first, firstObj = err, obj
			}
		}
	}
	return first
}

// AuditForwardOf verifies obj's forward lists alone. The shard reports
// every object whose lists it adds to or replaces to a watching monitor
// (Watch), which after each event audits only those.
func (s *Server) AuditForwardOf(obj lockmgr.ObjectID) error {
	if o := s.find(obj); o != nil {
		_, err := o.auditLists()
		return err
	}
	return nil
}

// auditLists checks the record's forward lists and returns the first
// violation with the object it is about.
func (o *objState) auditLists() (lockmgr.ObjectID, error) {
	if o.open == nil && o.sealed == nil && o.inflight == nil {
		return 0, nil
	}
	for _, l := range [3]*forward.List{o.open, o.sealed, o.inflight} {
		if l == nil {
			continue
		}
		if err := l.Wellformed(); err != nil {
			return l.Obj, err
		}
	}
	return 0, nil
}
