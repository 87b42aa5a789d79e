package rtdbs

import (
	"fmt"
	"sort"
	"time"

	"siteselect/internal/cache"
	"siteselect/internal/client"
	"siteselect/internal/config"
	"siteselect/internal/invariant"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/server"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/trace"
)

// Cluster is a client-server system: one or more server shards
// (config.Topology), N client sites, a shared LAN. It is the basic
// CS-RTDBS (object-shipping with callback locking) when every
// load-sharing flag of its config is off, and the LS-CS-RTDBS running
// the Section 4 algorithm with the flags it has on. servers[0] is shard
// 0 at netsim.ServerSite, the only one in the paper's topology.
type Cluster struct {
	core

	topo    *shardmap.Map
	servers []*server.Server
	clients []client.Client

	// touched is the invariant monitor's list of what the event being
	// checked touched (watch; nil without a monitor). visits counts the
	// lock entries and cached copies the per-event checks looked up, for
	// the tests that pin what a step costs.
	touched *[]lockmgr.Touch
	visits  struct{ locks, caches int }
	// pendingDue is the earliest deadline of any client's open exchange
	// as request conservation last saw them: until grace past it no
	// exchange open then can break the rule, and one opened since was
	// reported.
	pendingDue time.Duration
}

// NewClientServer builds the basic CS-RTDBS. Load-sharing features are
// forced off regardless of the config flags.
func NewClientServer(cfg config.Config) (*Cluster, error) {
	return newCluster(cfg, false, new(client.Stock))
}

// NewLoadSharing builds the LS-CS-RTDBS with the configured feature
// toggles (all on for the paper's system; ablations switch them off
// selectively).
func NewLoadSharing(cfg config.Config) (*Cluster, error) {
	return newCluster(cfg, true, new(client.Stock))
}

// newCluster builds the cluster on the one stock every record its sites
// recycle comes from and goes back to — message payloads, cache entries,
// lock-table records (the shards' and the clients' local tables'),
// transaction machines — and that no other cluster shares; the sites
// keep no free lists. (With nil each site makes a private stock; a test
// holds the two to one Result.) Without loadShare it is the basic
// CS-RTDBS: this is the one place the load-sharing flags are forced
// off, whatever the config says, and no site asks again.
func newCluster(cfg config.Config, loadShare bool, stock *client.Stock) (*Cluster, error) {
	if !loadShare {
		cfg.UseH1 = false
		cfg.UseH2 = false
		cfg.UseDecomposition = false
		cfg.UseForwardLists = false
		cfg.UseSpeculation = false
	}
	c := new(Cluster)
	if err := c.init(cfg); err != nil {
		return nil, err
	}
	env, net := c.env, c.net
	if cfg.Faults.Enabled() {
		net.SetFaults(faultConfig(cfg))
	}
	topo := shardmap.New(cfg.Sharding)
	c.topo = topo
	nShards := topo.Servers()
	for k := 0; k < nShards; k++ {
		st := stock
		if st == nil {
			st = new(client.Stock)
		}
		c.servers = append(c.servers, server.NewShard(env, &c.cfg, net, &st.Payloads, &st.Locks, k, topo))
	}
	if topo.Multi() {
		// Shard-to-shard mailboxes: every shard gets one peer inbox and
		// every other shard a route to it (replica installs, drains, and
		// forwarded firm requests). This is wiring only, and the one place
		// that asks how many shards there are: a lone shard has nobody to
		// hear from, and an inbox would give it one more machine to run.
		for k, sv := range c.servers {
			in := sim.NewMailbox[netsim.Message](env)
			sv.SetPeerInbox(in)
			for _, other := range c.servers {
				other.AttachPeer(k, in)
			}
		}
	}
	// The population is carved from a fixed number of arrays, whatever
	// its size — the clients, their mailboxes (a client's inbox, then its
	// connection queue at each shard), the inbox routing table, and the
	// workload arrays of newGenerators — and each site is initialised in
	// place: the loop below makes no object. The arrays live as long as
	// the cluster; nothing is returned to them.
	stride := 1 + nShards
	boxes := make([]sim.Mailbox[netsim.Message], cfg.NumClients*stride)
	inboxes := make([]*sim.Mailbox[netsim.Message], cfg.NumClients+1) // by site id
	c.clients = make([]client.Client, cfg.NumClients)
	for i := 1; i <= cfg.NumClients; i++ {
		id := netsim.SiteID(i)
		mine := boxes[(i-1)*stride : i*stride : i*stride]
		for k := range mine {
			mine[k].Init(env, net.Rings())
		}
		for k, sv := range c.servers {
			sv.Attach(id, &mine[1+k], &mine[0])
		}
		inboxes[id] = &mine[0]
		c.clients[i-1].Init(env, &c.cfg, id, net, stock, c.m, mine, topo, &c.gens[i-1])
	}
	for i := range c.clients {
		c.clients[i].SetPeers(&inboxes)
	}
	c.seedReplicas()
	if cfg.Trace {
		c.tr = trace.New()
		for _, sv := range c.servers {
			sv.SetTracer(c.tr)
		}
		for i := range c.clients {
			cl := &c.clients[i]
			cl.SetTracer(c.tr)
		}
	}
	return c, nil
}

// seedReplicas installs the topology's static replica placements
// (Topology.Replicas) before the run starts, in object order for
// determinism. Placements the home shard cannot honour are skipped —
// validation already bounds them, so the only skip reason here is a
// duplicate.
func (c *Cluster) seedReplicas() {
	objs := make([]int, 0, len(c.cfg.Sharding.Replicas))
	for obj := range c.cfg.Sharding.Replicas {
		objs = append(objs, obj)
	}
	sort.Ints(objs)
	for _, obj := range objs {
		target := c.cfg.Sharding.Replicas[obj]
		home := c.topo.HomeShard(lockmgr.ObjectID(obj))
		c.servers[home].SeedReplica(lockmgr.ObjectID(obj), c.servers[target])
	}
}

// faultSeedCoord is the coordinate separating the fault lottery stream
// from the workload streams in seed derivation ("fault" in ASCII).
const faultSeedCoord int64 = 0x6661756c74

// faultConfig translates the experiment-level fault spec into the
// network's fault schedule. The fault stream is seeded on a coordinate
// of its own, so enabling faults leaves every workload stream
// untouched, and fault activity stops at the generation horizon so the
// drain window converges.
func faultConfig(cfg config.Config) netsim.FaultConfig {
	fc := netsim.FaultConfig{
		Seed:         config.CellSeed(cfg.Seed, faultSeedCoord),
		DropRate:     cfg.Faults.DropRate,
		DupRate:      cfg.Faults.DupRate,
		SpikeRate:    cfg.Faults.SpikeRate,
		SpikeLatency: cfg.Faults.SpikeLatency,
		Horizon:      cfg.Duration,
	}
	if cfg.Faults.PartitionDuration > 0 {
		window := netsim.Partition{
			Start: cfg.Faults.PartitionAt,
			End:   cfg.Faults.PartitionAt + cfg.Faults.PartitionDuration,
		}
		if cfg.Faults.PartitionShard > 0 {
			// Server-shard partition: the shard's site id is negative;
			// every message to or from it drops for the window, and the
			// clients' retransmission machinery rides it out. It replaces
			// the PartitionSite partition — the zero-valued PartitionSite
			// would otherwise partition shard 0 too.
			window.Site = shardmap.ShardSite(cfg.Faults.PartitionShard)
		} else {
			window.Site = netsim.SiteID(cfg.Faults.PartitionSite)
		}
		fc.Partitions = []netsim.Partition{window}
	}
	return fc
}

// home returns the server shard authoritative for obj.
func (c *Cluster) home(obj lockmgr.ObjectID) *server.Server {
	return c.servers[c.topo.HomeShard(obj)]
}

// Tracer exposes the per-transaction tracer (nil unless cfg.Trace).
func (c *Cluster) Tracer() *trace.Tracer { return c.tr }

// Start spawns all actors without running the clock (tests use this).
func (c *Cluster) Start() {
	// Every machine about to be spawned is known: a connection handler
	// per client at each shard, a dispatcher per client, and a peer
	// handler per shard when there are several.
	n := len(c.clients) * (1 + len(c.servers))
	if c.topo.Multi() {
		n += len(c.servers)
	}
	c.env.Grow(n)
	for _, sv := range c.servers {
		sv.Start()
	}
	for i := range c.clients {
		cl := &c.clients[i]
		cl.Start()
	}
}

// Run executes the full experiment: generate work for cfg.Duration, let
// in-flight transactions drain, finalize outcomes, audit invariants, and
// shut the simulation down. With cfg.CheckInvariants set, a continuous
// invariant monitor checks after every executed event what the event
// touched, and a commit tracker verifies at the end that no committed
// update was lost.
func (c *Cluster) Run() (*Result, error) {
	var mon *invariant.Monitor
	var committed *invariant.Committed
	if c.cfg.CheckInvariants {
		mon, committed = c.monitor()
		mon.Attach()
	}
	c.Start()
	c.env.Run(c.cfg.Duration + c.cfg.Drain)
	res := c.collect()
	err := c.Audit()
	if err == nil {
		err = c.conserved()
	}
	if err == nil && mon != nil {
		err = mon.Final()
	}
	if err == nil && committed != nil {
		err = committed.Verify(c.bestVersion)
	}
	if err == nil {
		err = c.tr.VerifyAll()
	}
	c.env.Close()
	return res, err
}

// monitor builds the continuous monitor over checks and makes the model
// report to it what each event touches (watch). It also installs the
// commit tracker — except when the configured outage is allowed to lose
// updates by design (no recovery log). Attach the monitor before the
// model changes: it sees only what changed while it watched.
func (c *Cluster) monitor() (*invariant.Monitor, *invariant.Committed) {
	var committed *invariant.Committed
	if c.cfg.OutageClient == 0 || c.cfg.UseLogging {
		committed = invariant.NewCommitted()
		for i := range c.clients {
			cl := &c.clients[i]
			cl.SetCommitHook(committed.Observe)
		}
	}
	mon := invariant.New(c.env, c.checks()...)
	c.watch(mon.Touched())
	return mon, committed
}

// watch makes every shard's lock table and every client's cache report
// to touched each object an event changes.
func (c *Cluster) watch(touched *[]lockmgr.Touch) {
	c.touched, c.pendingDue = touched, client.Never
	for _, sv := range c.servers {
		sv.Watch(touched)
	}
	for i := range c.clients {
		cl := &c.clients[i]
		cl.Cache().Watch(int(cl.ID()), touched)
	}
}

// checks is the continuous suite: global lock-table consistency,
// forward-list well-formedness, batch conservation,
// dirty-implies-exclusive on every client cache, and request
// conservation (no transaction waits past its deadline plus a small
// grace). After each event the first four look only at the objects the
// event touched (firstTouched); Final sweeps everything.
func (c *Cluster) checks() []invariant.Check {
	grace := c.cfg.MeanSlack + 2*c.cfg.EffectiveRetryTimeout()
	eachServer := func(fn func(*server.Server) error) func() error {
		return func() error {
			for _, sv := range c.servers {
				if err := fn(sv); err != nil {
					return err
				}
			}
			return nil
		}
	}
	lockEntry := func(site int, obj lockmgr.ObjectID) error {
		c.visits.locks++
		return c.shard(site).AuditLock(obj)
	}
	forwardLists := func(site int, obj lockmgr.ObjectID) error {
		return c.shard(site).AuditForwardOf(obj)
	}
	cachedCopy := func(site int, obj lockmgr.ObjectID) error {
		c.visits.caches++
		cl := &c.clients[site-1]
		if e := cl.Cache().Peek(obj); e != nil {
			return dirtyExclusive(cl, e)
		}
		return nil
	}
	checks := []invariant.Check{
		{Name: "lock-table", Fn: func() error { return c.firstTouched(false, lockEntry) },
			Full: eachServer((*server.Server).AuditLocks)},
		{Name: "forward-lists", Fn: func() error { return c.firstTouched(false, forwardLists) },
			Full: eachServer((*server.Server).AuditForward)},
		{Name: "batch-conservation", Fn: eachServer((*server.Server).AuditBatch)},
		{Name: "dirty-implies-exclusive", Fn: func() error { return c.firstTouched(true, cachedCopy) },
			Full: c.auditDirty},
		{Name: "request-conservation", Fn: func() error { return c.auditPending(grace) },
			Full: func() error { _, err := c.pendingSweep(grace); return err }},
	}
	if c.tr != nil {
		// Attribution identity: every trace closed since the last step
		// must have buckets summing exactly to its elapsed time.
		checks = append(checks, invariant.Check{Name: "slack-attribution", Fn: c.tr.VerifyNewlyClosed})
	}
	return checks
}

// auditPending is request conservation after one event. An exchange
// breaks the rule only once the clock passes grace beyond its deadline,
// and a client reports every exchange it opens: so the deadlines of the
// clients that reported are folded into the earliest one seen
// (pendingDue), and the clients are swept — which finds what the full
// check finds, and the new earliest deadline — only once the clock has
// passed grace beyond it.
func (c *Cluster) auditPending(grace time.Duration) error {
	for _, tc := range *c.touched {
		if tc.Site > 0 {
			earliest, _ := c.clients[tc.Site-1].AuditPending(grace)
			c.pendingDue = min(c.pendingDue, earliest)
		}
	}
	if c.env.Now() <= c.pendingDue+grace {
		return nil
	}
	due, err := c.pendingSweep(grace)
	c.pendingDue = due
	return err
}

// pendingSweep is request conservation over every client; it returns the
// earliest deadline of any open exchange beside the first violation.
func (c *Cluster) pendingSweep(grace time.Duration) (time.Duration, error) {
	due := client.Never
	for i := range c.clients {
		earliest, err := c.clients[i].AuditPending(grace)
		if err != nil {
			return due, err
		}
		due = min(due, earliest)
	}
	return due, nil
}

// firstTouched is a check after one event: it runs check on every object
// the event touched at a client (clients) or at a shard (!clients), and
// returns the violation the check's full sweep names — the lowest failing
// object of the first failing site. What the event did not touch held
// before it and holds still, so the two agree at every step.
func (c *Cluster) firstTouched(clients bool, check func(site int, obj lockmgr.ObjectID) error) error {
	var first error
	var at lockmgr.Touch
	for _, tc := range *c.touched {
		if (tc.Site > 0) != clients || first != nil && !sweptBefore(tc, at) {
			continue // the other kind of site, or beyond the violation in hand
		}
		if err := check(tc.Site, tc.Obj); err != nil {
			first, at = err, tc
		}
	}
	return first
}

// shard returns the server shard at site.
func (c *Cluster) shard(site int) *server.Server {
	return c.servers[shardmap.ShardIndex(netsim.SiteID(site))]
}

// sweptBefore reports whether a full sweep meets a before b, both of one
// kind of site: shards by index (sites 0, -1, -2, …), clients by id
// (1, 2, …) — either way by the site's magnitude — and objects in
// ascending order within a site.
func sweptBefore(a, b lockmgr.Touch) bool {
	if a.Site != b.Site {
		return abs(a.Site) < abs(b.Site)
	}
	return a.Obj < b.Obj
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// auditDirty is the per-step slice of the end-of-run cache audit over
// every cached copy, the full sweep of dirty-implies-exclusive. The
// version comparisons of Audit are end-of-run properties — mid-run the
// server's copy legitimately lags committed writers.
func (c *Cluster) auditDirty() error {
	return c.auditCaches(dirtyExclusive)
}

// dirtyExclusive is dirty-implies-exclusive for one cached copy: a dirty
// copy must be held exclusively, unless a parked recall makes its state
// transitional.
func dirtyExclusive(cl *client.Client, e *cache.Entry) error {
	if e.Dirty() && e.Mode() != lockmgr.ModeExclusive && !cl.HasDeferredRecall(e.Obj) {
		return fmt.Errorf("rtdbs: client %d caches dirty object %d with %v",
			cl.ID(), e.Obj, e.Mode())
	}
	return nil
}

// auditCaches applies check to every cached entry of every client, in
// place, and returns the violation of the first client that has one, on
// that client's lowest-numbered failing object: a cache is walked in map
// order, and the report must not depend on it.
func (c *Cluster) auditCaches(check func(*client.Client, *cache.Entry) error) error {
	for i := range c.clients {
		cl := &c.clients[i]
		var first error
		var firstObj lockmgr.ObjectID
		cl.Cache().Visit(func(e *cache.Entry) {
			if first != nil && e.Obj > firstObj {
				return
			}
			if err := check(cl, e); err != nil {
				first, firstObj = err, e.Obj
			}
		})
		if first != nil {
			return first
		}
	}
	return nil
}

// bestVersion returns the highest version of obj any surviving copy
// carries — a server shard's page or a client's cached copy.
func (c *Cluster) bestVersion(obj lockmgr.ObjectID) int64 {
	best := c.home(obj).Version(obj)
	for _, sv := range c.servers {
		if v := sv.Version(obj); v > best {
			best = v
		}
	}
	for i := range c.clients {
		cl := &c.clients[i]
		if e := cl.Cache().Peek(obj); e != nil && e.Version > best {
			best = e.Version
		}
	}
	return best
}

// collect settles the run (core.settle) and reads the cluster's own
// statistics.
func (c *Cluster) collect() *Result {
	res := c.settle()
	// Hit rates average across shards; everything else sums.
	for _, sv := range c.servers {
		res.ServerBufferHitRate += sv.Pool().HitRate()
		res.ServerDiskReads += sv.Disk().Reads
		res.ServerDiskWrites += sv.Disk().Writes
		res.RecallsSent += sv.RecallsSent
		res.GrantsShipped += sv.GrantsShipped
		res.MigrationsStarted += sv.MigrationsStarted
		res.DeniesExpired += sv.DeniesExpired
		res.DeniesDeadlock += sv.DeniesDeadlock
		res.BatchFlushes += sv.Batcher().Flushes
		res.BatchedRequests += sv.Batcher().Batched
		res.ReplicasInstalled += sv.ReplicasInstalled
		res.ReplicasShed += sv.ReplicasShed
		res.RequestsForwarded += sv.RequestsForwarded
	}
	res.ServerBufferHitRate /= float64(len(c.servers))
	res.Faults = c.net.Faults()
	res.ExecutedPerSite = c.m.ExecutedPerSite()
	for i := range c.clients {
		cl := &c.clients[i]
		res.ForwardHops += cl.ForwardHops
		res.Retries += cl.Retries
		res.LostUpdates += cl.LostUpdates
		if l := cl.Log(); l != nil {
			res.LogForces += l.Forces
		}
	}
	return res
}

// Audit verifies cross-cutting invariants after a run: the global lock
// table is consistent, no client cache holds a dirty object without an
// exclusive lock, and every clean cached copy is current — its version
// matches the server's (a stale clean copy would mean a reader could
// observe a value some committed writer already replaced).
func (c *Cluster) Audit() error {
	for _, sv := range c.servers {
		if err := sv.AuditLocks(); err != nil {
			return err
		}
	}
	return c.auditCaches(func(cl *client.Client, e *cache.Entry) error {
		if cl.HasDeferredRecall(e.Obj) {
			return nil // a pending callback makes any state transitional
		}
		home := c.home(e.Obj)
		if e.Dirty() {
			if e.Mode() != lockmgr.ModeExclusive {
				return fmt.Errorf("rtdbs: client %d caches dirty object %d with %v",
					cl.ID(), e.Obj, e.Mode())
			}
			if e.Version <= home.Version(e.Obj) {
				return fmt.Errorf("rtdbs: client %d's dirty object %d at version %d not ahead of server's %d",
					cl.ID(), e.Obj, e.Version, home.Version(e.Obj))
			}
			return nil
		}
		if e.Version > home.Version(e.Obj) && home.Migrating(e.Obj) {
			return nil // retained copy ahead of a still-travelling chain
		}
		if e.Version != home.Version(e.Obj) {
			return fmt.Errorf("rtdbs: client %d caches stale clean object %d (version %d, server %d)",
				cl.ID(), e.Obj, e.Version, home.Version(e.Obj))
		}
		return nil
	})
}
