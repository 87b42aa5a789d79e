package rtdbs

import (
	"fmt"
	"sort"

	"siteselect/internal/cache"
	"siteselect/internal/client"
	"siteselect/internal/config"
	"siteselect/internal/invariant"
	"siteselect/internal/lockmgr"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/server"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
)

// Cluster is a client-server system: one or more server shards
// (config.Topology), N client sites, a shared LAN. With loadShare false
// it is the basic CS-RTDBS (object-shipping with callback locking);
// with loadShare true it is the LS-CS-RTDBS running the Section 4
// algorithm. servers[0] is shard 0 at netsim.ServerSite, the only one in
// the paper's topology.
type Cluster struct {
	// cfg is the one configuration every site points at; nothing
	// writes it once newCluster has returned.
	cfg       config.Config
	loadShare bool

	env     *sim.Env
	net     *netsim.Network
	m       *metrics.Collector
	topo    *shardmap.Map
	servers []*server.Server
	clients []client.Client
	tr      *trace.Tracer
}

// NewClientServer builds the basic CS-RTDBS. Load-sharing features are
// forced off regardless of the config flags.
func NewClientServer(cfg config.Config) (*Cluster, error) {
	cfg.UseH1 = false
	cfg.UseH2 = false
	cfg.UseDecomposition = false
	cfg.UseForwardLists = false
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
// holds the two to one Result.)
func newCluster(cfg config.Config, loadShare bool, stock *client.Stock) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	net := netsim.New(env, netsim.Config{
		Latency:      cfg.NetLatency,
		BandwidthBps: cfg.NetBandwidthBps,
		Switched:     cfg.Topology == config.TopologySwitched,
	})
	if cfg.Faults.Enabled() {
		net.SetFaults(faultConfig(cfg))
	}
	topo := shardmap.New(cfg.Sharding)
	c := &Cluster{
		cfg:       cfg,
		loadShare: loadShare,
		env:       env,
		net:       net,
		m:         &metrics.Collector{},
		topo:      topo,
	}
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
	gens := newGenerators(&c.cfg)
	stride := 1 + nShards
	boxes := make([]sim.Mailbox[netsim.Message], cfg.NumClients*stride)
	inboxes := make([]*sim.Mailbox[netsim.Message], cfg.NumClients+1) // by site id
	c.clients = make([]client.Client, cfg.NumClients)
	for i := 1; i <= cfg.NumClients; i++ {
		id := netsim.SiteID(i)
		mine := boxes[(i-1)*stride : i*stride : i*stride]
		for k := range mine {
			mine[k].Init(env)
		}
		for k, sv := range c.servers {
			sv.Attach(id, &mine[1+k], &mine[0])
		}
		inboxes[id] = &mine[0]
		c.clients[i-1].Init(env, &c.cfg, id, net, stock, c.m, mine, topo, &gens[i-1], loadShare)
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

// Env exposes the simulation environment (tests drive it directly).
func (c *Cluster) Env() *sim.Env { return c.env }

// Server exposes the server actor for shard 0 (the only shard in
// single-server topologies).
func (c *Cluster) Server() *server.Server { return c.servers[0] }

// Servers exposes every server shard.
func (c *Cluster) Servers() []*server.Server { return c.servers }

// home returns the server shard authoritative for obj.
func (c *Cluster) home(obj lockmgr.ObjectID) *server.Server {
	return c.servers[c.topo.HomeShard(obj)]
}

// Net exposes the simulated LAN (e.g. to install a message trace before
// Start).
func (c *Cluster) Net() *netsim.Network { return c.net }

// Clients exposes the client actors, as pointers into the cluster's
// array (a Client is never copied).
func (c *Cluster) Clients() []*client.Client {
	out := make([]*client.Client, len(c.clients))
	for i := range c.clients {
		out[i] = &c.clients[i]
	}
	return out
}

// Metrics exposes the live metrics collector.
func (c *Cluster) Metrics() *metrics.Collector { return c.m }

// Tracer exposes the per-transaction tracer (nil unless cfg.Trace).
func (c *Cluster) Tracer() *trace.Tracer { return c.tr }

// Start spawns all actors without running the clock (tests use this).
func (c *Cluster) Start() {
	// Every machine about to be spawned is known: a connection handler
	// per client at each shard, a generator and a dispatcher per client,
	// and a peer handler per shard when there are several.
	n := len(c.clients) * (2 + len(c.servers))
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
// invariant monitor re-checks the model after every executed event and
// a commit tracker verifies at the end that no committed update was
// lost.
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
	if err != nil {
		return res, err
	}
	return res, nil
}

// monitor assembles the continuous check suite: global lock-table
// consistency, forward-list well-formedness, dirty-implies-exclusive on
// every client cache, and request conservation (no transaction waits
// past its deadline plus a small grace). It also installs the commit
// tracker — except when the configured outage is allowed to lose
// updates by design (no recovery log).
func (c *Cluster) monitor() (*invariant.Monitor, *invariant.Committed) {
	var committed *invariant.Committed
	if c.cfg.OutageClient == 0 || c.cfg.UseLogging {
		committed = invariant.NewCommitted()
		for i := range c.clients {
			cl := &c.clients[i]
			cl.SetCommitHook(committed.Observe)
		}
	}
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
	checks := []invariant.Check{
		{Name: "lock-table", Fn: eachServer((*server.Server).AuditLocks)},
		{Name: "forward-lists", Fn: eachServer((*server.Server).AuditForward)},
		{Name: "batch-conservation", Fn: eachServer((*server.Server).AuditBatch)},
		{Name: "dirty-implies-exclusive", Fn: c.auditDirty},
		{Name: "request-conservation", Fn: func() error {
			for i := range c.clients {
				cl := &c.clients[i]
				if err := cl.AuditPending(grace); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	if c.tr != nil {
		// Attribution identity: every trace closed since the last step
		// must have buckets summing exactly to its elapsed time.
		checks = append(checks, invariant.Check{Name: "slack-attribution", Fn: c.tr.VerifyNewlyClosed})
	}
	return invariant.New(c.env, 1, checks...), committed
}

// auditDirty is the per-step slice of the end-of-run cache audit: a
// dirty cached object must be held exclusively. (The version
// comparisons of Audit are end-of-run properties — mid-run the server's
// copy legitimately lags committed writers.)
func (c *Cluster) auditDirty() error {
	return c.auditCaches(func(cl *client.Client, e *cache.Entry) error {
		if e.Dirty && e.Mode != lockmgr.ModeExclusive && !cl.HasDeferredRecall(e.Obj) {
			return fmt.Errorf("rtdbs: client %d caches dirty object %d with %v",
				cl.ID(), e.Obj, e.Mode)
		}
		return nil
	})
}

// auditCaches applies check to every cached entry of every client, in
// place — the monitor runs it after every kernel event — and returns
// the violation of the first client that has one, on that client's
// lowest-numbered failing object: a cache is walked in map order, and
// the report must not depend on it.
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

func (c *Cluster) collect() *Result {
	now := c.env.Now()
	for i := range c.clients {
		cl := &c.clients[i]
		for _, t := range cl.Tracked {
			if !t.Terminal() {
				if t.Deadline >= now {
					continue // still legitimately in flight; exclude
				}
				t.Status = txn.StatusMissed
				t.Finished = now
				// Close the stranded transaction's trace so its wait since
				// the last mark is attributed (it died waiting).
				site := t.ExecSite
				if site == netsim.ServerSite {
					site = t.Origin
				}
				c.tr.Finish(t, site, now)
			}
			if t.Arrival < c.cfg.Warmup {
				continue // cold-start transactions are excluded
			}
			c.m.Submitted++
			c.m.RecordOutcome(t)
		}
	}
	res := &Result{
		Config:         c.cfg,
		M:              c.m,
		Messages:       messageSnapshot(c.net),
		TotalMessages:  c.net.TotalMessages(),
		TotalBytes:     c.net.TotalBytes(),
		NetUtilization: c.net.Utilization(),
		Elapsed:        now,
	}
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
	if c.tr != nil {
		res.MissCauses = c.tr.MissCauses(c.cfg.Warmup)
	}
	res.ExecutedPerSite = make(map[netsim.SiteID]int64, len(c.clients))
	for i := range c.clients {
		cl := &c.clients[i]
		res.ForwardHops += cl.ForwardHops
		res.Retries += cl.Retries
		res.LostUpdates += cl.LostUpdates
		if l := cl.Log(); l != nil {
			res.LogForces += l.Forces
		}
		for _, t := range cl.Tracked {
			if t.Status == txn.StatusCommitted && t.Arrival >= c.cfg.Warmup {
				res.ExecutedPerSite[t.ExecSite]++
			}
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
		if e.Dirty {
			if e.Mode != lockmgr.ModeExclusive {
				return fmt.Errorf("rtdbs: client %d caches dirty object %d with %v",
					cl.ID(), e.Obj, e.Mode)
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
