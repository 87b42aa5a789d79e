// Package server implements the database server of the client-server
// configurations: per-client connection handlers (the paper's
// thread-per-client design), the global SL/EL lock table with callback
// locking and EL→SL downgrades, deadline-ordered object request
// scheduling, the piggybacked load table, and — in load-sharing mode —
// forward-list collection and dispatch for grouped object migration.
package server

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"siteselect/internal/batch"
	"siteselect/internal/config"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/pagefile"
	"siteselect/internal/proto"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/slab"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
)

// MigrationOwner is the pseudo-owner holding an object's global lock
// while the object hops along a forward list: the server cannot know
// which list client currently has it, only that it is checked out.
const MigrationOwner lockmgr.OwnerID = -1

// Server is one database server shard. In the paper's topology there is
// exactly one (shard 0, site netsim.ServerSite); multi-server
// configurations partition the object space over M shards, each with
// its own lock table, pagefile, buffer pool, and batch scheduler, at
// sites 0, -1, … -(M-1).
type Server struct {
	env *sim.Env
	cfg *config.Config // shared with every site; never written
	net *netsim.Network
	// payloads is the cluster's stock of payload records: every send
	// takes one, every connection handler returns the one it was
	// delivered.
	payloads *proto.Pool

	// shard is this server's index in the topology; site is its network
	// address (shardmap.ShardSite(shard)); topo is the cluster-shared
	// routing map. The paper's single server is shard 0 of the one-shard
	// map: it is the home of every object, so nothing below ever routes
	// away from it or replicates.
	shard    int
	site     netsim.SiteID
	topo     *shardmap.Map
	adaptive bool

	// Shard-to-shard transport: peerIn is this shard's inbox for
	// messages from other shards, peerOut addresses each shard's inbox.
	// A lone shard is wired with neither.
	peerIn  *sim.Mailbox[netsim.Message]
	peerOut []*sim.Mailbox[netsim.Message]

	locks    *lockmgr.Table
	disk     *pagefile.Disk
	pool     *pagefile.BufferPool
	versions []int64
	cpu      *sim.Resource

	// objs indexes, by object id like versions and the lock table, the
	// one record of everything else the shard keeps about an object
	// (objState); nil until something is recorded about it. Most objects
	// never conflict, run hot or replicate, so records are carved on
	// first write (rec) from objChunks, and stay for the run.
	objs      []*objState
	objChunks [][]objState
	// recallNodes holds every object's outstanding callbacks, chained
	// from its record, and the spare nodes, chained from recallFree: the
	// sets are tiny and short-lived, the recalled objects thousands, so
	// they share one slab. Node 0 is the chains' nil.
	recallNodes []recallNode
	recallFree  int32

	// sites holds, by client id, each attached client's connection and
	// the load it last reported (slot 0 is unused: site 0 is a shard).
	sites []site

	// epochRecs holds the blocks every object's release-epoch list lives
	// in (objState.epochs).
	epochRecs slab.Slab[epochRec]

	collector *forward.Collector

	// batcher routes every firm request through the batch-window layer.
	// With BatchWindow == 0 it degenerates to a synchronous inline call
	// of serveFirm (no scheduling, no buffering — byte-identical to the
	// unbatched server); with a positive window requests park until the
	// window closes and the whole batch resolves in one pass.
	batcher *batch.Scheduler
	// Every ship and recall goes through the intent buffers below and is
	// sent by flushShips/flushRecalls, grouped per destination. batching
	// is true while a window flush is resolving its batch: the intents
	// then stay pending until endFlush; otherwise each is flushed as it
	// is decided, a group of one.
	batching      bool
	shipIntents   []shipIntent
	recallIntents []recallIntent

	// ships holds the ship machines, one while its page reads are parked.
	// puts holds the page-install ops of returns carrying data: a
	// connection has one only while its install is parked, so the slab
	// grows to the installs in flight, not to the connection count. reqs
	// holds the lock requests: one resolved in place goes back at once, a
	// queued one when it surfaces in an admit batch and is shipped.
	ships slab.Slab[batchShipMachine]
	puts  slab.Slab[pagefile.PutOp]
	reqs  slab.Slab[lockmgr.Request]
	// siteScratch, holderScratch, flushMark and flushGroup are reusable
	// buffers for the per-message aggregations (loadsFor, one object's
	// holders, eachGroup); what they gather is copied into the reply
	// record's own arrays: dispatch allocates nothing.
	siteScratch   []netsim.SiteID
	holderScratch []netsim.SiteID
	flushMark     []bool
	flushGroup    []int

	// tr is the per-run transaction tracer (nil when tracing is off).
	tr *trace.Tracer

	// faulty enables the duplicate-request guard: with fault injection on,
	// clients retransmit requests, and a request already reflected in the
	// lock table or a forward list must be served idempotently rather
	// than registered twice.
	faulty bool

	// Counters surfaced in experiment reports.
	RecallsSent        int64
	GrantsShipped      int64
	MigrationsStarted  int64
	ReadRunsStarted    int64
	ForwardEntriesSent int64
	DeniesExpired      int64
	DeniesDeadlock     int64
	ReplicasInstalled  int64
	ReplicasShed       int64
	RequestsForwarded  int64
}

// site is one attached client: its connection and its piggybacked load.
type site struct {
	inbox *sim.Mailbox[netsim.Message] // server-side, from this client
	out   *sim.Mailbox[netsim.Message] // the client's inbox
	load  proto.LoadReport             // Valid once the client reported one
}

// objState is everything a shard keeps about one object beyond its
// version and its lock-table entry. The zero value means "nothing":
// not hot, no replica either way, no callback out, no forward list.
type objState struct {
	// At the object's home shard: shared grants counted over the current
	// HeatWindow (heatN == 0: no window open), and whether a read replica
	// is provisioned on another shard.
	heatStart  time.Duration
	heatN      int32
	replicaOut bool
	// At any other shard: the lifecycle of the replica served here, its
	// grants over the current window (cold shedding), and its heartbeat,
	// made by the first adaptive install and kept over every shed since.
	replica replicaState
	repHeat int32
	beat    *heatBeat
	// recalls heads the chain of sites with a callback outstanding
	// (Server.recallNodes), so that no holder is recalled twice for the
	// same demand.
	recalls int32
	// sealed is the forward list awaiting dispatch, inflight the one
	// travelling client to client.
	sealed, inflight *forward.List
	// epochs records the release epoch each client last reported for the
	// object, in ascending client order; grants are stamped with it so
	// releases crossing grants on the wire are detected (see
	// proto.ObjGrant). A client that never reported one has no element.
	epochs []epochRec
}

// epochRec is one client's last reported release epoch of an object.
type epochRec struct {
	client netsim.SiteID
	epoch  int64
}

// findEpoch returns the index of client in the sorted list, or the
// insertion point when absent.
func findEpoch(list []epochRec, client netsim.SiteID) (int, bool) {
	return slices.BinarySearchFunc(list, client, func(e epochRec, c netsim.SiteID) int {
		return cmp.Compare(e.client, c)
	})
}

// recallNode is one outstanding callback of an object.
type recallNode struct {
	site netsim.SiteID
	next int32
}

// recallLink returns the link of o's chain — the record's head or a
// node's next — that holds site's node, or the chain's nil end when no
// callback to site is outstanding. It is good until the next addRecall.
func (s *Server) recallLink(o *objState, site netsim.SiteID) *int32 {
	link := &o.recalls
	for *link != 0 && s.recallNodes[*link].site != site {
		link = &s.recallNodes[*link].next
	}
	return link
}

// addRecall records a callback to site as outstanding.
func (s *Server) addRecall(o *objState, site netsim.SiteID) {
	n := s.recallFree
	if n != 0 {
		s.recallFree = s.recallNodes[n].next
	} else {
		n = int32(len(s.recallNodes))
		s.recallNodes = append(s.recallNodes, recallNode{})
	}
	s.recallNodes[n] = recallNode{site: site, next: o.recalls}
	o.recalls = n
}

// dropRecall forgets the callback outstanding to site, if there is one.
func (s *Server) dropRecall(o *objState, site netsim.SiteID) {
	link := s.recallLink(o, site)
	if n := *link; n != 0 {
		*link = s.recallNodes[n].next
		s.recallNodes[n].next, s.recallFree = s.recallFree, n
	}
}

// objChunkLen is the number of records carved from one allocation.
const objChunkLen = 64

// at returns a copy of obj's record, all zero when nothing was ever
// recorded. Reads go through at; a write through the copy is lost, so
// every write goes through rec.
func (s *Server) at(obj lockmgr.ObjectID) objState {
	if o := s.objs[obj]; o != nil {
		return *o
	}
	return objState{}
}

// rec returns obj's record for writing, carving it on first use.
func (s *Server) rec(obj lockmgr.ObjectID) *objState {
	if o := s.objs[obj]; o != nil {
		return o
	}
	n := len(s.objChunks)
	if n == 0 || len(s.objChunks[n-1]) == objChunkLen {
		s.objChunks = append(s.objChunks, make([]objState, 0, objChunkLen))
		n++
	}
	chunk := append(s.objChunks[n-1], objState{})
	s.objChunks[n-1] = chunk
	s.objs[obj] = &chunk[len(chunk)-1]
	return s.objs[obj]
}

// New returns the single server of the paper's topology. Call Attach
// for every client, then Start.
func New(env *sim.Env, cfg *config.Config, net *netsim.Network, payloads *proto.Pool) *Server {
	return NewShard(env, cfg, net, payloads, nil, 0, shardmap.New(cfg.Sharding))
}

// NewShard returns server shard `shard` of a (possibly multi-server)
// topology sharing the payload pool, the lock-record slab (nil: records
// of the shard's own) and the runtime map topo. Call Attach for every
// client — and, in multi-server topologies, SetPeerInbox/AttachPeer for
// the shard-to-shard transport — then Start.
func NewShard(env *sim.Env, cfg *config.Config, net *netsim.Network, payloads *proto.Pool,
	locks *lockmgr.Slab, shard int, topo *shardmap.Map) *Server {
	disk := pagefile.NewDisk(env, cfg.DBSize, pagefile.DiskConfig{
		ReadTime:  cfg.DiskRead,
		WriteTime: cfg.DiskWrite,
	})
	s := &Server{
		env:         env,
		cfg:         cfg,
		net:         net,
		payloads:    payloads,
		shard:       shard,
		site:        shardmap.ShardSite(shard),
		topo:        topo,
		adaptive:    cfg.Sharding.Adaptive(),
		locks:       new(lockmgr.Table),
		disk:        disk,
		pool:        pagefile.NewBufferPool(env, disk, cfg.ServerMemory),
		versions:    make([]int64, cfg.DBSize),
		cpu:         sim.NewResource(env, 1),
		objs:        make([]*objState, cfg.DBSize),
		recallNodes: make([]recallNode, 1),
		sites:       make([]site, cfg.NumClients+1),
	}
	s.locks.Init(locks)
	s.locks.Reserve(cfg.DBSize)
	s.faulty = cfg.Faults.Enabled()
	if cfg.UseForwardLists {
		s.collector = forward.NewCollector(env, cfg.CollectionWindow, s.onSeal)
	}
	s.batcher = batch.NewScheduler(env, cfg.BatchWindow, s.serveFirm)
	if cfg.BatchWindow > 0 {
		s.batcher.BeginFlush = s.beginFlush
		s.batcher.EndFlush = s.endFlush
	}
	return s
}

// SetTracer installs the per-run transaction tracer and wires the lock
// table and forward-list hooks that feed it. Call before Start.
func (s *Server) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	if tr == nil {
		return
	}
	s.locks.SetHook(lockmgr.Hook{
		Requested: func(req *lockmgr.Request, out lockmgr.Outcome, blockers []lockmgr.OwnerID) {
			id := txn.ID(req.Tag)
			if id == 0 || req.Owner == MigrationOwner {
				return
			}
			now := s.env.Now()
			tr.Point(id, s.site, trace.EvLockRequested, req.Obj, int64(req.Mode), int64(out), now)
			switch out {
			case lockmgr.Queued:
				tr.Point(id, s.site, trace.EvLockBlocked, req.Obj, int64(len(blockers)), 0, now)
			case lockmgr.Deadlock:
				tr.Point(id, s.site, trace.EvLockDenied, req.Obj, int64(proto.DenyDeadlock), 0, now)
			}
		},
		Granted: func(req *lockmgr.Request) {
			id := txn.ID(req.Tag)
			if id == 0 || req.Owner == MigrationOwner {
				return
			}
			tr.Point(id, s.site, trace.EvLockGranted, req.Obj, 0, 0, s.env.Now())
		},
	})
	if s.collector != nil {
		s.collector.TraceSeal = func(l *forward.List) {
			now := s.env.Now()
			for _, e := range l.Entries {
				tr.Point(e.Txn, s.site, trace.EvListSealed, l.Obj, int64(l.Len()), 0, now)
			}
		}
	}
}

// Locks exposes the global lock table for audits.
func (s *Server) Locks() *lockmgr.Table { return s.locks }

// Pool exposes the server buffer pool for metrics.
func (s *Server) Pool() *pagefile.BufferPool { return s.pool }

// Disk exposes the server disk for metrics.
func (s *Server) Disk() *pagefile.Disk { return s.disk }

// Version returns the server's current version of obj.
func (s *Server) Version(obj lockmgr.ObjectID) int64 { return s.versions[obj] }

// Migrating reports whether obj is currently checked out to a forward
// list (its authoritative version is travelling client-to-client).
func (s *Server) Migrating(obj lockmgr.ObjectID) bool { return s.at(obj).inflight != nil }

// Attach registers a client connection: inbox receives the client's
// messages at the server; out is the client's own inbox.
func (s *Server) Attach(id netsim.SiteID, inbox, out *sim.Mailbox[netsim.Message]) {
	if grow := int(id) + 1 - len(s.sites); grow > 0 {
		// An id beyond the configured population (NewShard sized the table
		// for that).
		s.sites = append(s.sites, make([]site, grow)...)
	}
	s.sites[id] = site{inbox: inbox, out: out}
}

// client returns the record of attached client id, nil for any other
// site: a shard (ids <= 0) or a client never attached.
func (s *Server) client(id netsim.SiteID) *site {
	if id <= 0 || int(id) >= len(s.sites) || s.sites[id].out == nil {
		return nil
	}
	return &s.sites[id]
}

// SetPeerInbox installs this shard's inbox for shard-to-shard messages
// (a lone shard has no peers and needs none); Start spawns a handler
// for it.
func (s *Server) SetPeerInbox(in *sim.Mailbox[netsim.Message]) { s.peerIn = in }

// AttachPeer wires the outbound route to shard k's peer inbox.
func (s *Server) AttachPeer(k int, in *sim.Mailbox[netsim.Message]) {
	if s.peerOut == nil {
		s.peerOut = make([]*sim.Mailbox[netsim.Message], s.topo.Servers())
	}
	s.peerOut[k] = in
}

// Start spawns one event-driven handler per attached connection, in
// ascending client id, plus one for the shard-to-shard inbox when
// peered. The handlers are the elements of one array, which lives as
// long as the shard: a handler is never returned to it.
func (s *Server) Start() {
	n := 0
	for id := range s.sites {
		if s.sites[id].inbox != nil {
			n++
		}
	}
	if s.peerIn != nil {
		n++
	}
	handlers := make([]connMachine, 0, n)
	spawn := func(in *sim.Mailbox[netsim.Message]) {
		handlers = append(handlers, connMachine{s: s, inbox: in})
		m := &handlers[len(handlers)-1]
		s.env.Spawn(&m.task, m)
	}
	for id := range s.sites {
		if in := s.sites[id].inbox; in != nil {
			spawn(in)
		}
	}
	if s.peerIn != nil {
		spawn(s.peerIn)
	}
}

// connMachine is a connection handler as a state machine: one per
// attached client, looping receive → CPU charge → dispatch. The only
// payload that parks mid-handle is an ObjReturn carrying data (the page
// install goes through the pool); the machine keeps the message's
// payload across resumes and borrows the install op from the server's
// pool for as long as the install is parked. Handlers take the payload
// by value; once the last of them has returned, the record goes back to
// the cluster's payload pool (done), unless the fault layer delivered
// the frame twice (shared).
type connMachine struct {
	task    sim.Task
	s       *Server
	inbox   *sim.Mailbox[netsim.Message]
	pc      uint8
	shared  bool
	payload any
	put     *pagefile.PutOp
}

const (
	csRecv uint8 = iota
	csCPUSleep
	csHandle
	csPut
)

func (m *connMachine) Resume() {
	s := m.s
	for {
		switch m.pc {
		case csRecv:
			msg, ok := m.inbox.Recv(&m.task)
			if !ok {
				return
			}
			m.payload, m.shared = msg.Payload, msg.Shared
			if s.cfg.ServerOpCPU <= 0 {
				m.pc = csHandle
				continue
			}
			m.pc = csCPUSleep
			if !m.task.Acquire(s.cpu, 0) {
				return
			}
		case csCPUSleep:
			m.pc = csHandle
			m.task.Sleep(s.cfg.ServerOpCPU)
			return
		case csHandle:
			if s.cfg.ServerOpCPU > 0 {
				s.cpu.Release()
			}
			m.pc = csRecv
			switch pl := m.payload.(type) {
			case *proto.ProbeRequest:
				s.noteLoad(pl.Load)
				s.handleProbe(*pl)
			case *proto.CommitRequest:
				s.noteLoad(pl.Load)
				s.handleCommitRequest(*pl)
			case *proto.ObjReturn:
				s.noteLoad(pl.Load)
				if s.returnNeedsWrite(*pl) {
					// The page is stamped with the version so end-to-end
					// consistency can be audited.
					m.put = s.puts.New()
					m.put.Init(s.pool, pagefile.PageID(pl.Obj), uint64(s.versions[pl.Obj]))
					m.pc = csPut
					continue
				}
				s.finishReturn(*pl)
			case *proto.LoadQuery:
				s.noteLoad(pl.Load)
				s.handleLoadQuery(*pl)
			case *proto.ReplicaInstall:
				// Shard-to-shard only: the home shard provisions a read
				// replica here.
				s.installReplica(pl.Obj, pl.Version)
			case *proto.RecallMsg:
				// Shard-to-shard only: the home shard recalls replicas
				// served here (a writer arrived) — a forced drain.
				for _, r := range pl.Recalls {
					s.shedReplica(r.Obj, true)
				}
			default:
				panic(fmt.Sprintf("server: unexpected payload %T", m.payload))
			}
			m.done()
		case csPut:
			done, err := m.put.Step(&m.task)
			if !done {
				return
			}
			ret := m.payload.(*proto.ObjReturn)
			if err != nil {
				panic(fmt.Sprintf("server: writing object %d: %v", ret.Obj, err))
			}
			s.puts.Put(m.put)
			m.put = nil
			m.pc = csRecv
			s.finishReturn(*ret)
			m.done()
		}
	}
}

// done ends the handling of the current message: its payload record
// returns to the pool for the next sender.
func (m *connMachine) done() {
	if !m.shared {
		m.s.payloads.Release(m.payload)
	}
	m.payload = nil
}

func (s *Server) noteLoad(l proto.LoadReport) {
	if c := s.client(l.Client); c != nil && l.Valid {
		c.load = l
	}
}

func (s *Server) send(to netsim.SiteID, kind netsim.Kind, size int, payload any) {
	var dest *sim.Mailbox[netsim.Message]
	if shardmap.IsShardSite(to) {
		k := shardmap.ShardIndex(to)
		if s.peerOut == nil || k >= len(s.peerOut) || s.peerOut[k] == nil {
			panic(fmt.Sprintf("server: shard %d send to unattached shard %d", s.shard, k))
		}
		dest = s.peerOut[k]
	} else {
		c := s.client(to)
		if c == nil {
			panic(fmt.Sprintf("server: send to unattached site %d", to))
		}
		dest = c.out
	}
	s.net.Send(netsim.Message{
		Kind:    kind,
		From:    s.site,
		To:      to,
		Size:    size,
		Payload: payload,
	}, dest)
}

// deny refuses one request.
func (s *Server) deny(to netsim.SiteID, d proto.DenyReply) {
	p := s.payloads.DenyReply.New()
	*p = d
	s.send(to, netsim.KindLockReply, netsim.ControlBytes, p)
}

// handleProbe implements the all-or-nothing tentative round of the
// Section 4 pseudocode: grant and ship everything, or ship nothing and
// report where the conflicting objects are.
func (s *Server) handleProbe(req proto.ProbeRequest) {
	now := s.env.Now()
	if req.Deadline < now {
		s.DeniesExpired++
		s.deny(req.Client, proto.DenyReply{Txn: req.Txn, Reason: proto.DenyExpired})
		return
	}
	// Built in a pooled record's own arrays; the client copies it out.
	reply := s.payloads.ConflictReply.New()
	for i, obj := range req.Objs {
		if !s.servesObj(obj, req.Modes[i]) {
			// The object moved off this shard (its replica was recalled
			// or shed after the client routed here). A probe is
			// all-or-nothing and cannot span shards, so report a
			// degenerate "busy" conflict; the client's stay-local
			// fallback re-routes the firm requests freshly.
			s.holderScratch = append(s.holderScratch[:0], req.Client)
		} else {
			s.holderScratch = s.conflictHolders(s.holderScratch[:0], obj, req.Client, req.Modes[i])
		}
		if len(s.holderScratch) > 0 {
			reply.Conflicts, reply.Flat = proto.AppendLocation(reply.Conflicts, reply.Flat, obj, s.holderScratch)
		}
	}
	if len(reply.Conflicts) == 0 {
		s.payloads.Release(reply)
		for i, obj := range req.Objs {
			lr := s.reqs.New()
			lr.Obj, lr.Owner = obj, lockmgr.OwnerID(req.Client)
			lr.Mode, lr.Deadline, lr.Tag = req.Modes[i], req.Deadline, int64(req.Txn)
			outcome, _ := s.locks.Lock(lr)
			if outcome != lockmgr.Granted {
				panic("server: conflict-free probe request not granted")
			}
			s.reqs.Put(lr)
			s.ship(obj, req.Client, req.Modes[i], req.Txn, nil)
			s.noteServe(obj, req.Modes[i], req.Client)
		}
		return
	}
	reply.Txn = req.Txn
	reply.Loads = s.loadsFor(reply.Loads, reply.Conflicts)
	reply.DataCounts = s.dataCounts(reply.DataCounts, req.Objs, reply.Conflicts)
	s.send(req.Client, netsim.KindLockReply, netsim.ControlBytes, reply)
}

// dataCounts appends to counts (empty), for every candidate holder site
// in site order, how many of the probed objects it caches in any mode —
// the Section 3.1 "significant percentage of the required data" signal
// for transaction shipping. Candidate sets are tiny: linear scans beat
// maps.
func (s *Server) dataCounts(counts []proto.SiteCount, objs []lockmgr.ObjectID, conflicts []proto.ObjConflict) []proto.SiteCount {
	at := func(site netsim.SiteID) int {
		return slices.IndexFunc(counts, func(c proto.SiteCount) bool { return c.Site == site })
	}
	for _, c := range conflicts {
		for _, h := range c.Holders {
			if at(h) < 0 {
				counts = append(counts, proto.SiteCount{Site: h})
			}
		}
	}
	for _, obj := range objs {
		for i, n := 0, s.locks.HolderCount(obj); i < n; i++ {
			if h, _ := s.locks.HolderAt(obj, i); h != MigrationOwner {
				if j := at(siteFor(h)); j >= 0 {
					counts[j].Count++
				}
			}
		}
	}
	slices.SortFunc(counts, func(a, b proto.SiteCount) int { return cmp.Compare(a.Site, b.Site) })
	return slices.DeleteFunc(counts, func(c proto.SiteCount) bool { return c.Count == 0 })
}

// handleCommitRequest serves a message of firm requests: the "process
// locally, ship ASAP" follow-up for all of a transaction's outstanding
// objects, one sequential fetch, or a request another shard forwarded.
func (s *Server) handleCommitRequest(cr proto.CommitRequest) {
	for i, obj := range cr.Objs {
		s.handleFirm(cr.Client, cr.Txn, obj, cr.Modes[i], cr.Deadline)
	}
}

// handleFirm routes one firm object request through the batching layer:
// with BatchWindow == 0 the request is served inline before handleFirm
// returns (exactly the unbatched server); with a positive window it
// parks until the window closes and serveFirm runs on the whole batch.
func (s *Server) handleFirm(client netsim.SiteID, id txn.ID, obj lockmgr.ObjectID, mode lockmgr.Mode, deadline time.Duration) {
	if s.faulty && s.batcher.Window() > 0 && s.batcher.Pending(client, id, obj) {
		// A retransmit of a request already parked in the open window:
		// the original will be answered when the window closes, so the
		// copy must not enter the window a second time.
		return
	}
	s.batcher.Add(batch.Request{Client: client, Txn: id, Obj: obj, Mode: mode, Deadline: deadline})
}

// serveFirm serves one firm object request: grant and ship, queue with
// callbacks (basic client-server), or join the object's forward list
// (load sharing). It is the batch scheduler's sink — during a window
// flush the ships and recalls it triggers are deferred and coalesced
// per destination (see beginFlush/endFlush).
func (s *Server) serveFirm(r batch.Request) batch.Outcome {
	now := s.env.Now()
	if wait := now - r.Enqueued; wait > 0 {
		s.tr.AddBatchWait(r.Txn, r.Obj, wait, now)
	}
	if r.Deadline < now {
		// The paper's object request scheduling: the server unilaterally
		// refuses to ship to transactions that already missed.
		s.DeniesExpired++
		s.deny(r.Client, proto.DenyReply{Txn: r.Txn, Obj: r.Obj, Reason: proto.DenyExpired})
		return batch.OutDeniedExpired
	}
	if out, rerouted := s.routeFirm(r); rerouted {
		return out
	}
	if s.faulty && s.dupFirm(r.Client, r.Txn, r.Obj, r.Mode) {
		return batch.OutDupServed
	}
	if s.collector != nil && s.groupable(r.Obj, r.Client, r.Mode) {
		s.tr.Point(r.Txn, s.site, trace.EvListJoined, r.Obj, 0, 0, now)
		s.collector.Add(r.Obj, forward.Entry{Client: r.Client, Mode: r.Mode, Deadline: r.Deadline, Txn: r.Txn})
		s.recallForMigration(r.Obj)
		s.tryDispatch(r.Obj) // the object may already be free
		return batch.OutListed
	}
	lr := s.reqs.New()
	lr.Obj, lr.Owner = r.Obj, lockmgr.OwnerID(r.Client)
	lr.Mode, lr.Deadline, lr.Tag = r.Mode, r.Deadline, int64(r.Txn)
	outcome, _ := s.locks.Lock(lr)
	switch outcome {
	case lockmgr.Granted:
		s.reqs.Put(lr)
		s.ship(r.Obj, r.Client, r.Mode, r.Txn, nil)
		s.noteServe(r.Obj, r.Mode, r.Client)
		return batch.OutGranted
	case lockmgr.Queued:
		s.recallForQueueHead(r.Obj)
		return batch.OutQueued
	default: // lockmgr.Deadlock
		s.reqs.Put(lr)
		s.DeniesDeadlock++
		s.deny(r.Client, proto.DenyReply{Txn: r.Txn, Obj: r.Obj, Reason: proto.DenyDeadlock})
		return batch.OutDeniedDeadlock
	}
}

// dupFirm serves a retransmitted firm request idempotently from the
// server's existing state (fault injection only): a request whose lock
// is already held ships the object again (the original ship may have
// been lost); one already queued or on a forward list just nudges the
// recall machinery. Only a request with no trace in the server's state
// proceeds to normal registration.
func (s *Server) dupFirm(client netsim.SiteID, id txn.ID, obj lockmgr.ObjectID, mode lockmgr.Mode) bool {
	owner := lockmgr.OwnerID(client)
	if held := s.locks.HolderMode(obj, owner); held == mode || held == lockmgr.ModeExclusive {
		s.ship(obj, client, held, id, nil)
		return true
	}
	if s.locks.HasWaiter(obj, owner) {
		s.recallForQueueHead(obj)
		return true
	}
	ls, n := s.lists(obj)
	for _, l := range ls[:n] {
		if l.Contains(client, id) {
			s.recallForMigration(obj)
			s.tryDispatch(obj)
			return true
		}
	}
	return false
}

// returnNeedsWrite applies the bookkeeping that precedes a return's page
// install — the release-epoch and version high-water marks — and reports
// whether the return carries data that must be written through the pool
// before finishReturn runs.
func (s *Server) returnNeedsWrite(ret proto.ObjReturn) bool {
	if ret.Epoch > 0 {
		o := s.rec(ret.Obj)
		if i, ok := findEpoch(o.epochs, ret.Client); !ok {
			o.epochs = s.epochRecs.Insert(o.epochs, i, epochRec{client: ret.Client, epoch: ret.Epoch}, 0)
		} else if ret.Epoch > o.epochs[i].epoch {
			o.epochs[i].epoch = ret.Epoch
		}
	}
	if !ret.HasData {
		return false
	}
	if ret.Version > s.versions[ret.Obj] {
		s.versions[ret.Obj] = ret.Version
	}
	return true
}

// finishReturn processes a recall answer, a voluntary dirty eviction, or
// the final hop of a migration, after any carried data has been
// installed.
func (s *Server) finishReturn(ret proto.ObjReturn) {
	obj := ret.Obj
	if ret.UpdateOnly {
		// Write-through push: data only, the client keeps its lock.
		return
	}
	if ret.RunComplete {
		// A parallel read run finished delivering; the object is no
		// longer in flight and waiting writers may now proceed.
		s.rec(obj).inflight = nil
		s.tryDispatch(obj)
		return
	}
	if o := s.objs[obj]; o != nil {
		s.dropRecall(o, ret.Client)
	}
	if ret.Migration {
		s.rec(obj).inflight = nil
		grants := s.locks.Release(obj, MigrationOwner)
		// Register the shared copies retained along the chain so the
		// lock table matches the client caches.
		for _, site := range ret.RetainedSL {
			owner := lockmgr.OwnerID(site)
			free := len(s.locks.ConflictingHolders(obj, owner, lockmgr.ModeShared)) == 0 &&
				s.locks.QueueLen(obj) == 0
			if !free {
				// The release just granted someone else exclusivity;
				// invalidate the stray copy instead of registering it.
				s.recall(obj, site, false, 0)
				continue
			}
			lr := s.reqs.New()
			lr.Obj, lr.Owner = obj, owner
			lr.Mode, lr.Deadline = lockmgr.ModeShared, s.env.Now()
			if outcome, _ := s.locks.Lock(lr); outcome != lockmgr.Granted {
				panic("server: retained SL registration failed on free object")
			}
			s.reqs.Put(lr)
		}
		s.shipGrants(grants)
		s.tryDispatch(obj)
		return
	}
	var grants []*lockmgr.Request
	if ret.Downgraded {
		grants = s.locks.Downgrade(obj, ownerFor(ret.Client))
	} else {
		grants = s.locks.Release(obj, ownerFor(ret.Client))
	}
	if shardmap.IsShardSite(ret.Client) {
		// A replica shard finished draining: the object may be
		// re-provisioned when it runs hot again.
		s.rec(obj).replicaOut = false
	}
	s.shipGrants(grants)
	// Still blocked? Chase the remaining holders.
	s.recallForQueueHead(obj)
	s.tryDispatch(obj)
	// A client release at a replica shard may complete a drain.
	s.finishShedIfDrained(obj)
}

func (s *Server) handleLoadQuery(q proto.LoadQuery) {
	reply := s.payloads.LoadReply.New()
	reply.Txn = q.Txn
	for _, obj := range q.Objs {
		if s.holderScratch = s.holdersFor(s.holderScratch[:0], obj, q.Client); len(s.holderScratch) > 0 {
			reply.Locations, reply.Flat = proto.AppendLocation(reply.Locations, reply.Flat, obj, s.holderScratch)
		}
	}
	reply.Loads = s.loadsFor(reply.Loads, reply.Locations)
	s.send(q.Client, netsim.KindLoadReply, netsim.ControlBytes, reply)
}
