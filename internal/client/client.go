// Package client implements a client site of the client-server
// configurations: the workload generator, the EDF-scheduled local
// executor, the two-tier object/lock cache with callback handling, and —
// in load-sharing mode — the Section 4 protocol: H1 admission, tentative
// all-or-nothing object probes, H2 site selection with transaction
// shipping, transaction decomposition, and forward-list migration hops.
//
// Messages in the simulation are passed by reference: a shipped
// transaction is the same *txn.Transaction at origin and target, and the
// executing site is the single writer of its status.
package client

import (
	"fmt"
	"time"

	"siteselect/internal/cache"
	"siteselect/internal/config"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/sched"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/slab"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
	"siteselect/internal/wal"
)

// Client is one client site.
type Client struct {
	env *sim.Env
	// cfg is the cluster's one configuration, shared by every site and
	// never written after construction.
	cfg *config.Config
	id  netsim.SiteID
	net *netsim.Network
	// stock is the system's: every record this site recycles — a payload
	// per send, handed back by the dispatcher that delivers it; cache
	// entries, lock records, transaction machines — comes from it and
	// goes back to it. The site keeps no free list.
	stock *Stock
	m     *metrics.Collector

	// boxes is this client's window of the cluster's mailbox array:
	// boxes[0] receives server and peer messages, boxes[1+k] is the
	// client's connection queue at shard k. peers (installed by SetPeers)
	// points at the cluster's table of client inboxes by site id, for
	// forward-list hops and transaction shipping.
	boxes []sim.Mailbox[netsim.Message]
	peers *[]*sim.Mailbox[netsim.Message]

	// topo is the cluster-shared routing map. curFrom is the sender of
	// the message the dispatcher is currently handling — the shard a
	// grant's epoch belongs to and a recall is answered at.
	topo    *shardmap.Map
	curFrom netsim.SiteID

	// What every site has lives in the Client by value — the cache, the
	// executor slots, the dispatcher — so a built, armed and parked site
	// is one element of the cluster's client array, not six objects.
	// What only some configurations have stays a pointer that is nil
	// without it: localLocks (more than one executor) points at
	// lockTable, localDisk and log (a client disk, logging) at objects of
	// their own.
	objects    cache.Cache
	slots      sim.Resource
	disp       dispMachine
	lockTable  lockmgr.Table
	localLocks *lockmgr.Table
	localDisk  *sim.Resource
	log        *wal.Log

	atl sched.ATL
	// gen is this site's transaction stream; its maker lists what the
	// site generated until the site retires it (retire).
	gen txn.Source

	// faulty and rto configure the retry machinery: both are zero-valued
	// in fault-free runs, where every retry path collapses to the
	// original single-send behavior. rto is the base retransmission
	// timeout, doubled per retry of the same request (capped at 8x) and
	// always bounded by the transaction deadline.
	faulty bool
	rto    time.Duration
	// onCommit, when set, observes every committed write (invariant
	// monitoring: no committed update may be lost).
	onCommit func(lockmgr.ObjectID, int64)

	// tr is the per-run transaction tracer (nil when tracing is off; a
	// nil tracer's methods are no-ops). curTransit is the wire transit
	// of the message the dispatcher is currently handling, accumulated
	// into waiting transactions' network attribution.
	tr         *trace.Tracer
	curTransit time.Duration

	// pending tracks transactions waiting for object replies (a handful
	// at most — executor slots plus queries), a dense scan-addressed
	// slice of pointers into the waiting machines (txnMachine.pt), so a
	// steady-state request round performs no map operations and no
	// allocation.
	pending []*pendingTxn
	// objs holds a record for every object with protocol business here
	// beyond its cached copy — waiters, a parked recall, a migration
	// (objRec); a handful at most, found by scan.
	objs []*objRec
	// fanouts are the machines waiting for the subtasks of a decomposed
	// transaction: a remote subtask's result finds its wait through them.
	fanouts []*txnMachine
	// epochs counts this client's releases per object and granting
	// shard, sorted by (object, site). Every return carries the current
	// epoch and every grant the shard sends echoes the epoch it last
	// saw; a mismatch identifies a grant that crossed a release on the
	// wire and must be dropped. At a single server the site key is
	// always netsim.ServerSite.
	epochs []epochEntry

	// outageEnd is set while the client is partitioned (fault
	// injection): the dispatcher holds all message processing until it
	// passes.
	outageEnd time.Duration

	// ForwardHops counts forward-list client-to-client sends.
	ForwardHops int64
	// LostUpdates counts committed-but-unreturned updates wiped by an
	// outage with no recovery log configured.
	LostUpdates int64
	// Retries counts request retransmissions sent under fault injection.
	Retries int64
}

// shipWait is where a subtask's result reaches its parent's fanout.
type shipWait struct {
	sig       sim.Signal
	done      bool
	committed bool
}

func (w *shipWait) report(committed bool) {
	w.done, w.committed = true, committed
	w.sig.Broadcast()
}

// pendingTxn is one request/reply exchange of a transaction machine, a
// field of it (txnMachine.pt).
type pendingTxn struct {
	t *txn.Transaction
	// waits is the outstanding object-request set: object, requested
	// mode, and send time in one dense record (the former want and sent
	// maps, which were always written in pairs).
	waits []objWait

	sig    sim.Signal
	denied proto.DenyReason
	// kind is what the exchange asks for (skLocate … skSeq, set before
	// each send): it picks resend's op, wire kind, accesses and routing,
	// and the condition that completes the wait (awaitCond).
	kind uint8
	// Reply assembly. An exchange is one message per shard and each
	// shard answers for its slice; the Locations answers are copied into
	// pooled records, per sender and in shard order (keepReply), and read
	// when the waiting step consumes them (h2Inputs). A probe's answer
	// marks the exchange answered as it arrives: H2 then decides on the
	// conflicts seen so far, a deliberate heuristic — waiting for every
	// shard would trade deadline slack for information the decision may
	// not need. A location query is answered once want shards have
	// answered.
	answered bool
	replies  []shardReply
	want     int
	// netAccum accumulates the measured wire transit of the current
	// request/reply exchange (uplink sends plus satisfying replies);
	// awaitReply splits each wait interval into network and lock-wait
	// attribution with it.
	netAccum time.Duration
}

// Stock is what a system's sites take their records from and hand them
// back to, so that what is kept for reuse is bounded by what the system
// has in flight at once, not by how many sites it has: the payload pool
// and the slab of the lock tables (the server shards take these two as
// well), the slabs of cache entries, of transaction machines and of
// object records, the blocks a site's lists of those grow in, and the
// working memory of a site-selection decision. The system constructor
// makes one and hands it to every site; the zero Stock is ready to use.
type Stock struct {
	Payloads proto.Pool
	Locks    lockmgr.Slab

	entries  cache.Slab
	machines slab.Slab[txnMachine]
	objs     slab.Slab[objRec]
	h2       h2Scratch

	// The blocks of Client.objs, pending and fanouts (enlist); pendLists
	// also holds an object record's waiters.
	objLists  slab.Slab[*objRec]
	pendLists slab.Slab[*pendingTxn]
	fanLists  slab.Slab[*txnMachine]

	// The blocks a machine's vectors live in: its pinned entries, its
	// access lists (local lock order, misses) and a fan-out's results,
	// taken at the length a transaction needs and handed back when it
	// ends (slab.Fit, Return), and an exchange's waits, grown by Insert
	// and kept with the machine.
	pins    slab.Slab[*cache.Entry]
	ops     slab.Slab[txn.Op]
	waits   slab.Slab[objWait]
	results slab.Slab[*shipWait]
	// epochs holds the blocks of the clients' release-epoch lists.
	epochs slab.Slab[epochEntry]
	// parts holds the subtasks a decomposition runs, each with its
	// result. They are carved and never handed back: a peer may still run
	// a subtask after its parent gave up waiting, so no site knows when
	// one is spent, and a chunk goes to the collector with its last part.
	parts slab.Slab[fanPart]
}

// fanPart is one subtask of a decomposed transaction and the wait its
// result is reported to.
type fanPart struct {
	sub  txn.Subtask
	wait shipWait
}

// Init makes c a client site, in place: a cluster's clients are the
// elements of one array, and a Client holds a machine, a resource and
// (once started) wait-queue links, so it is initialised where it lives
// and not copied afterwards. cfg, topo and stock (nil for a client on
// its own, which gets a private one) are the cluster's, shared by every
// site; boxes are this client's initialised mailboxes — boxes[0] its
// message queue, boxes[1+k] its connection queue at server shard k (two
// boxes at a single server).
// Peers must be set via SetPeers before Start when forward lists or
// shipping are enabled.
func (c *Client) Init(env *sim.Env, cfg *config.Config, id netsim.SiteID, net *netsim.Network, stock *Stock,
	m *metrics.Collector, boxes []sim.Mailbox[netsim.Message], topo *shardmap.Map, gen txn.Source) {
	if stock == nil {
		stock = new(Stock)
	}
	*c = Client{
		env:   env,
		cfg:   cfg,
		id:    id,
		net:   net,
		stock: stock,
		m:     m,
		boxes: boxes,
		topo:  topo,
		atl:   sched.ATL{Default: cfg.MeanLength},
		gen:   gen,
	}
	c.objects.Init(cfg.ClientMemory, cfg.ClientDisk, &stock.entries)
	c.lockTable.Init(&stock.Locks)
	c.slots.Init(env, cfg.ClientExecutors)
	c.disp.c = c
	c.faulty = cfg.Faults.Enabled()
	c.rto = cfg.EffectiveRetryTimeout()
	if cfg.ClientExecutors > 1 {
		// Deliberately not Reserved: a client only ever locks the few
		// objects it caches, and a dense database-wide index per client
		// would dominate memory at large populations.
		c.localLocks = &c.lockTable
	}
	if cfg.ClientDisk > 0 || cfg.UseLogging {
		// The local disk arm serves disk-tier cache reads and the log;
		// a client configured with neither has no disk to model.
		c.localDisk = sim.NewResource(env, 1)
	}
	if cfg.UseLogging {
		c.log = wal.New(env, c.localDisk, cfg.DiskWrite)
		// Commit-time forces share the batching layer's window: the
		// force leader waits it out so concurrent committers join one
		// disk write (inert at the default window of zero).
		c.log.SetGroupWindow(cfg.BatchWindow)
	}
}

// ID returns the client's site id.
func (c *Client) ID() netsim.SiteID { return c.id }

// Cache exposes the object cache for metrics and audits.
func (c *Client) Cache() *cache.Cache { return &c.objects }

// HasDeferredRecall reports whether a recall for obj is waiting for a
// local transaction to finish (a transitional state audits must allow).
func (c *Client) HasDeferredRecall(obj lockmgr.ObjectID) bool { return c.phase(obj)&phParked != 0 }

// migrating reports whether obj is held here for a forward-list hop.
func (c *Client) migrating(obj lockmgr.ObjectID) bool { return c.phase(obj)&phMigrating != 0 }

// Log exposes the client's write-ahead log (nil unless UseLogging).
func (c *Client) Log() *wal.Log { return c.log }

// SetCommitHook installs fn to observe every committed write as
// (object, new version). The invariant monitor uses it to verify that
// no committed update is ever lost.
func (c *Client) SetCommitHook(fn func(lockmgr.ObjectID, int64)) { c.onCommit = fn }

// SetTracer installs the per-run transaction tracer. Call before Start.
func (c *Client) SetTracer(tr *trace.Tracer) { c.tr = tr }

// AuditPending verifies request conservation: no transaction may still
// be waiting on a request more than grace past its deadline — by then
// the request must have been answered, retried to resolution, or
// abandoned by the deadline timeout. It also returns the earliest
// deadline of the client's open exchanges, waiting or not (Never when it
// has none): until grace past it, none of them can break the rule. An
// exchange opening is reported to a watching monitor (openPending), so
// the monitor need not ask again before then.
func (c *Client) AuditPending(grace time.Duration) (time.Duration, error) {
	now := c.env.Now()
	earliest := Never
	for _, pt := range c.pending {
		earliest = min(earliest, pt.t.Deadline)
		if len(pt.waits) == 0 && pt.kind != skLocate {
			continue
		}
		if now > pt.t.Deadline+grace {
			return earliest, fmt.Errorf("client %d: txn %d still waiting %v past its deadline",
				c.id, pt.t.ID, now-pt.t.Deadline)
		}
	}
	return earliest, nil
}

// Never is a time no run reaches, and grace added to it does not wrap.
const Never = time.Duration(1 << 62)

// SetPeers installs the clients' inbox routing table, indexed by site
// id. Every client points at the one table (it may include this
// client's own entry), which keeps per-client state at a word at large
// populations. Self-sends are rejected in toPeer.
func (c *Client) SetPeers(peers *[]*sim.Mailbox[netsim.Message]) {
	c.peers = peers
}

// peer returns client id's inbox, nil when there is no route to it.
func (c *Client) peer(id netsim.SiteID) *sim.Mailbox[netsim.Message] {
	if c.peers == nil || id <= 0 || int(id) >= len(*c.peers) {
		return nil
	}
	return (*c.peers)[id]
}

// Start posts the client's first arrival, spawns its dispatcher, and
// schedules the configured outage, if this client is its target.
func (c *Client) Start() {
	c.postArrival()
	c.startDispatcher()
	if netsim.SiteID(c.cfg.OutageClient) == c.id && c.cfg.OutageDuration > 0 {
		c.env.At(c.cfg.OutageAt, c.beginOutage)
	}
}

// startDispatcher runs only the message dispatcher (tests submit
// transactions explicitly).
func (c *Client) startDispatcher() {
	c.env.Spawn(&c.disp.task, &c.disp)
}

// submitAsync runs the full submit path for t, starting at the current
// instant.
func (c *Client) submitAsync(t *txn.Transaction) {
	c.spawnTxn(t, nil, enOrigin, nil)
}

// beginOutage partitions the client and wipes its volatile state: the
// dispatcher stops draining messages until the outage ends, clean cache
// copies are lost (their locks release lazily via NotCached answers),
// and dirty copies survive only with logging on. Nothing replays the
// log: the model keeps them, as a recovery would (package wal).
func (c *Client) beginOutage() {
	c.outageEnd = c.env.Now() + c.cfg.OutageDuration
	c.objects.Visit(func(e *cache.Entry) {
		if e.Pinned() {
			return // in a running transaction's memory image
		}
		if e.Dirty() && c.log == nil {
			c.LostUpdates++
		}
		if e.Dirty() && c.log != nil {
			return // kept: logging models their durability, nothing replays it
		}
		// Dropping a copy without telling the server is the lazy-release
		// path the protocol already supports: a later recall gets a
		// NotCached answer, and in-flight grants redeliver current data.
		c.objects.Recycle(c.objects.Remove(e.Obj))
	})
}

// RunEvent submits the arrival that is due: the client's transaction
// stream is a chain of kernel events (sim.EventHook), one per arrival,
// each posting the next. An arrival that falls in an outage is held
// until the outage ends: no submissions while down.
func (c *Client) RunEvent() {
	if c.env.Now() < c.outageEnd {
		c.env.AtHook(c.outageEnd, c)
		return
	}
	t := c.gen.Next()
	c.tr.Submitted(t, c.id, c.env.Now())
	c.spawnTxn(t, nil, enOrigin, nil)
	c.postArrival()
}

// postArrival posts the next arrival while it falls within the
// configured horizon; one that an outage held past its time is posted
// for now.
func (c *Client) postArrival() {
	if next := c.gen.NextArrival(); next <= c.cfg.Duration {
		c.env.AtHook(max(next, c.env.Now()), c)
	}
}

// dispMachine routes incoming messages. During an injected outage the
// messages queue in the inbox (plus at most one held in-hand) and drain
// only after the client restarts. The held message is boxed when an
// outage catches one: every client has a dispatcher, almost none ever
// sees an outage.
type dispMachine struct {
	task sim.Task
	c    *Client
	held *netsim.Message
}

func (d *dispMachine) Resume() {
	c := d.c
	if d.held != nil {
		msg := *d.held
		d.held = nil
		c.dispatchMsg(msg)
	}
	for {
		msg, ok := c.boxes[0].Recv(&d.task)
		if !ok {
			return
		}
		if d.task.Now() < c.outageEnd {
			held := msg // a copy, so msg itself stays off the heap
			d.held = &held
			d.task.SleepUntil(c.outageEnd)
			return
		}
		c.dispatchMsg(msg)
	}
}

// dispatchMsg hands a delivered payload to its handler — by value, so
// no handler can keep the record — and then returns the record to the
// cluster's pool, unless the fault layer delivered the frame twice.
func (c *Client) dispatchMsg(msg netsim.Message) {
	c.curTransit = msg.DeliveredAt - msg.SentAt
	c.curFrom = msg.From
	switch pl := msg.Payload.(type) {
	case *proto.GrantMsg:
		// Apply each member grant in order (the members of a
		// batch-window coalesced ship share the message's transit for
		// network attribution).
		for _, g := range pl.Grants {
			c.onGrant(g)
		}
	case *proto.Locations:
		c.onLocations(*pl, msg.Kind == netsim.KindLoadReply)
	case *proto.DenyReply:
		c.onDeny(*pl)
	case *proto.RecallMsg:
		for _, r := range pl.Recalls {
			c.onRecall(r)
		}
	case *proto.TxnShip:
		c.onTxnShip(*pl)
	case *proto.TxnResult:
		c.onTxnResult(*pl)
	default:
		panic(fmt.Sprintf("client: unexpected payload %T", msg.Payload))
	}
	if !msg.Shared {
		c.stock.Payloads.Release(msg.Payload)
	}
}

// loadReport summarizes this client's load for piggybacking: the number
// of transactions waiting for an executor slot and the observed ATL.
func (c *Client) loadReport() proto.LoadReport {
	return proto.LoadReport{
		Client:   c.id,
		QueueLen: c.slots.QueueLen(),
		ATL:      c.atl.Mean(),
		Valid:    true,
	}
}

// measuring reports whether the warmup period is over and statistics
// should be recorded.
func (c *Client) measuring() bool { return c.env.Now() >= c.cfg.Warmup }

// toSite and toPeer send one message and return its wire transit for
// network attribution. toSite targets a shard site.
func (c *Client) toSite(site netsim.SiteID, kind netsim.Kind, size int, payload any) time.Duration {
	return c.net.Send(netsim.Message{
		Kind: kind, From: c.id, To: site, Size: size, Payload: payload,
	}, &c.boxes[1+shardmap.ShardIndex(site)])
}

// sendReturn sends ret to the shard at to in a pooled record.
func (c *Client) sendReturn(to netsim.SiteID, size int, ret proto.ObjReturn) {
	r := c.stock.Payloads.ObjReturn.New()
	*r = ret
	c.toSite(to, netsim.KindObjectReturn, size, r)
}

// sendHop passes obj at version on to next, the live entry of its
// forward list l that the hop serves.
func (c *Client) sendHop(next forward.Entry, obj lockmgr.ObjectID, version int64, l *forward.List) {
	c.ForwardHops++
	c.tr.Point(next.Txn, c.id, trace.EvMigrationHop, obj, int64(next.Client), 0, c.env.Now())
	p := c.stock.Payloads.GrantMsg.New()
	p.Grants = append(p.Grants, proto.ObjGrant{
		Obj: obj, Mode: next.Mode, Version: version, Epoch: next.Epoch, Fwd: l,
	})
	c.toPeer(next.Client, netsim.KindClientForward, netsim.ObjectBytes, p)
}

func (c *Client) toPeer(to netsim.SiteID, kind netsim.Kind, size int, payload any) time.Duration {
	mb := c.peer(to)
	if mb == nil || to == c.id {
		panic(fmt.Sprintf("client %d: no peer route to %d", c.id, to))
	}
	return c.net.Send(netsim.Message{
		Kind: kind, From: c.id, To: to, Size: size, Payload: payload,
	}, mb)
}
