package client

import (
	"slices"
	"testing"
	"time"

	"siteselect/internal/cache"
	"siteselect/internal/config"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/rng"
	"siteselect/internal/sched"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// rig wires one client against a scripted "server": the test reads the
// client's outbound messages from the connection queue and injects
// replies into the client's inbox directly.
type rig struct {
	t      *testing.T
	env    *sim.Env
	net    *netsim.Network
	cl     *Client
	inbox  *sim.Mailbox[netsim.Message]   // client's inbox
	toSrv  *sim.Mailbox[netsim.Message]   // what the client sent to the server (shard 0)
	shards []*sim.Mailbox[netsim.Message] // what it sent to each shard; shards[0] is toSrv
	peer   *sim.Mailbox[netsim.Message]   // inbox of peer site 2
}

func newRig(t *testing.T, mod func(*config.Config)) *rig { return newRigOn(t, mod, nil) }

// newRigOn is newRig with the client on stock: two rigs on one stock are
// two sites of one system.
func newRigOn(t *testing.T, mod func(*config.Config), stock *Stock) *rig {
	t.Helper()
	env := sim.NewEnv()
	cfg := config.Default(2, 0.05)
	cfg.ClientMemory = 8
	cfg.ClientDisk = 8
	cfg.DiskRead = time.Millisecond
	if mod != nil {
		mod(&cfg)
	}
	net := netsim.New(env, netsim.Config{Latency: 100 * time.Microsecond, BandwidthBps: 10e6})
	// The client's mailboxes as a cluster lays them out: its inbox (Init
	// makes the client its reader), then its connection queue at each
	// shard, read by the test.
	boxes := make([]sim.Mailbox[netsim.Message], 1+cfg.Sharding.NumServers())
	for k := range boxes[1:] {
		boxes[1+k].Init(env, net.Rings(), nil)
	}
	inbox := &boxes[0]
	shards := make([]*sim.Mailbox[netsim.Message], len(boxes)-1)
	for k := range shards {
		shards[k] = &boxes[1+k]
	}
	peer := sim.NewMailbox[netsim.Message](env)

	stream, derived := rng.NewStream(1), new(rng.Stream)
	stream.DeriveInto(derived, 7)
	access := rng.NewLocalizedRW(derived, rng.LocalizedRWConfig{
		DBSize: cfg.DBSize, ClientIndex: 0, NumClients: 2,
		RegionSize: cfg.HotRegionSize, LocalFraction: cfg.LocalFraction,
		ZipfTheta: cfg.ZipfTheta,
	})
	gen := new(txn.Generator)
	gen.Init(stream, 1, txn.WorkloadConfig{
		MeanInterArrival: cfg.MeanInterArrival,
		MeanLength:       cfg.MeanLength,
		MeanSlack:        cfg.MeanSlack,
		MeanObjects:      cfg.MeanObjects,
		Access:           access,
	}, new(txn.Maker))

	cl := new(Client)
	cl.Init(env, &cfg, 1, net, stock, &metrics.Collector{}, boxes, shardmap.New(cfg.Sharding), gen)
	// Not started: tests submit transactions explicitly, and the inbox's
	// reader needs no start.
	cl.SetPeers(&[]*sim.Mailbox[netsim.Message]{2: peer})
	return &rig{t: t, env: env, net: net, cl: cl, inbox: inbox, toSrv: shards[0], shards: shards, peer: peer}
}

// inject delivers a payload to the client as if from the server; a bare
// grant or recall travels as the message of one.
func (r *rig) inject(kind netsim.Kind, payload any) { r.injectFrom(0, kind, payload) }

// injectFrom is inject from server shard k. A grant without a request
// number carries the one the shard would echo for the client's open
// request of its object (expected).
func (r *rig) injectFrom(k int, kind netsim.Kind, payload any) {
	switch el := payload.(type) {
	case proto.ObjGrant:
		if el.Num == 0 {
			el.Num = r.expected(el.Obj, shardmap.ShardSite(k))
		}
		payload = &proto.GrantMsg{Grants: []proto.ObjGrant{el}}
	case proto.Recall:
		payload = &proto.RecallMsg{Recalls: []proto.Recall{el}}
	}
	r.net.Send(netsim.Message{
		Kind: kind, From: shardmap.ShardSite(k), To: 1,
		Size: netsim.ControlBytes, Payload: payload,
	}, r.inbox)
}

// asked leaves a request for obj open at the client, sent once, as one a
// transaction made and gave up waiting for, and returns its number.
func (r *rig) asked(obj lockmgr.ObjectID) int64 {
	num, rec := r.cl.newNum(), r.cl.recFor(obj)
	rec.reqs = append(rec.reqs, openReq{num: num, until: r.cl.lateUntil(time.Hour)})
	rec.sent(num)
	return num
}

// expected is the number a grant of obj from site carries for the
// client's oldest open request of it, zero (a grant for no request) when
// it has none.
func (r *rig) expected(obj lockmgr.ObjectID, site netsim.SiteID) int64 {
	if rec := r.cl.rec(obj); rec != nil && len(rec.reqs) > 0 {
		return rec.expect(rec.reqs[0].num, site)
	}
	return 0
}

// request returns payload as an object request with the given op, nil
// when it is anything else.
func request(payload any, op proto.Op) *proto.ObjRequest {
	if q, ok := payload.(*proto.ObjRequest); ok && q.Op == op {
		return q
	}
	return nil
}

// sent drains and returns the client's outbound server messages.
func (r *rig) sent(until time.Duration) []netsim.Message {
	r.env.Run(until)
	var out []netsim.Message
	for {
		m, ok := r.toSrv.TryGet()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

// newTxn issues a transaction from the client's maker, as its generator
// would: the client retires it where it finishes.
func (r *rig) newTxn(ops []txn.Op, slack time.Duration) *txn.Transaction {
	now := r.env.Now()
	t := r.cl.gen.Maker().New(len(ops))
	copy(t.Ops, ops)
	t.Origin, t.ExecSite, t.Arrival = 1, 1, now
	t.Deadline, t.Length = now+slack, 100*time.Millisecond
	t.Status = txn.StatusPending
	return t
}

// seed puts an object straight into the client cache.
func (r *rig) seed(obj lockmgr.ObjectID, mode lockmgr.Mode, dirty bool, version int64) *cache.Entry {
	r.cl.objects.Insert(obj, mode, dirty, version)
	return r.cl.objects.Peek(obj)
}

func TestClientRecallOfIdleEntryAnswersImmediately(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	r.seed(5, lockmgr.ModeExclusive, true, 3)
	r.inject(netsim.KindRecall, proto.Recall{Obj: 5})
	msgs := r.sent(time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectReturn {
		t.Fatalf("messages = %+v", msgs)
	}
	ret := msgs[0].Payload.(*proto.ObjReturn)
	if !ret.HasData || ret.Version != 3 || ret.Downgraded {
		t.Fatalf("return = %+v", ret)
	}
	if r.cl.objects.Peek(5) != nil {
		t.Fatal("full recall should drop the entry")
	}
}

func TestClientDowngradeRecallKeepsSharedCopy(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	r.seed(5, lockmgr.ModeExclusive, true, 9)
	r.inject(netsim.KindRecall, proto.Recall{Obj: 5, DowngradeToShared: true})
	msgs := r.sent(time.Second)
	ret := msgs[0].Payload.(*proto.ObjReturn)
	if !ret.Downgraded || !ret.HasData || ret.Version != 9 {
		t.Fatalf("return = %+v", ret)
	}
	e := r.cl.objects.Peek(5)
	if e == nil || e.Mode() != lockmgr.ModeShared || e.Dirty() {
		t.Fatalf("entry after downgrade = %+v", e)
	}
}

func TestClientDowngradeDisabledFallsBackToRelease(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.UseDowngrade = false })
	defer r.env.Close()
	r.seed(5, lockmgr.ModeExclusive, false, 1)
	r.inject(netsim.KindRecall, proto.Recall{Obj: 5, DowngradeToShared: true})
	r.sent(time.Second)
	if r.cl.objects.Peek(5) != nil {
		t.Fatal("with downgrades disabled the entry must be dropped")
	}
}

func TestClientRecallOfMissingEntryAnswersNotCached(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	r.inject(netsim.KindRecall, proto.Recall{Obj: 77})
	msgs := r.sent(time.Second)
	ret := msgs[0].Payload.(*proto.ObjReturn)
	if ret.HasData || ret.Downgraded { // a lock-only release: no copy
		t.Fatalf("return = %+v", ret)
	}
	if ret.Num == 0 {
		t.Fatalf("release carries no request number: %+v", ret)
	}
}

func TestClientRecallDeferredWhilePinned(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	e := r.seed(5, lockmgr.ModeExclusive, true, 2)
	r.cl.objects.Pin(e)
	r.inject(netsim.KindRecall, proto.Recall{Obj: 5})
	msgs := r.sent(time.Second)
	if len(msgs) != 0 {
		t.Fatalf("pinned recall answered immediately: %+v", msgs)
	}
	if !r.cl.HasDeferredRecall(5) {
		t.Fatal("recall not deferred")
	}
	// Unpin and run afterRelease as commit would.
	r.cl.objects.Unpin(e)
	r.cl.afterRelease([]txn.Op{{Obj: 5, Write: true}})
	msgs = r.sent(2 * time.Second)
	if len(msgs) != 1 || !msgs[0].Payload.(*proto.ObjReturn).HasData {
		t.Fatalf("deferred recall answer = %+v", msgs)
	}
}

func TestClientExecutesFullyCachedTransaction(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	r.seed(1, lockmgr.ModeShared, false, 0)
	r.seed(2, lockmgr.ModeExclusive, false, 0)
	tx := r.newTxn([]txn.Op{{Obj: 1}, {Obj: 2, Write: true}}, time.Minute)
	r.cl.submitAsync(tx)
	msgs := r.sent(10 * time.Second)
	if len(msgs) != 0 {
		t.Fatalf("fully cached txn sent messages: %+v", msgs)
	}
	if tx.Status != txn.StatusCommitted {
		t.Fatalf("status = %v", tx.Status)
	}
	e := r.cl.objects.Peek(2)
	if !e.Dirty() || e.Version != 1 {
		t.Fatalf("written entry = %+v", e)
	}
	if r.cl.atl == (sched.ATL{Default: r.cl.atl.Default}) {
		t.Fatal("ATL not observed")
	}
}

func TestClientProbeThenGrantFlow(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	tx := r.newTxn([]txn.Op{{Obj: 30}, {Obj: 31}}, time.Minute)
	r.cl.submitAsync(tx)
	msgs := r.sent(time.Second)
	if len(msgs) != 1 {
		t.Fatalf("expected one probe, got %+v", msgs)
	}
	probe := request(msgs[0].Payload, proto.OpProbe)
	if probe == nil || len(probe.Objs) != 2 {
		t.Fatalf("probe = %+v", msgs[0].Payload)
	}
	// Server grants both.
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 30, Mode: lockmgr.ModeShared, Version: 1})
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 31, Mode: lockmgr.ModeShared, Version: 1})
	r.sent(30 * time.Second)
	if tx.Status != txn.StatusCommitted {
		t.Fatalf("status = %v", tx.Status)
	}
}

func TestClientConflictReplyShipsToDataRichTarget(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	ops := []txn.Op{{Obj: 40}, {Obj: 41}, {Obj: 42}}
	tx := r.newTxn(ops, time.Minute)
	r.cl.submitAsync(tx)
	r.sent(time.Second) // probe out
	// Peer 2 holds everything: strictly better on conflicts and data.
	r.inject(netsim.KindLockReply, &proto.Locations{
		Txn: tx.ID,
		Objs: []proto.ObjConflict{
			{Obj: 40, Holders: []netsim.SiteID{2}},
		},
		DataCounts: []proto.SiteCount{{Site: 2, Count: 3}},
	})
	r.env.Run(2 * time.Second)
	if !tx.Shipped {
		t.Fatal("transaction not shipped")
	}
	m, ok := r.peer.TryGet()
	if !ok || m.Kind != netsim.KindTxnShip {
		t.Fatalf("peer message = %+v", m)
	}
}

func TestClientConflictReplyStaysWhenTargetDataPoor(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	// The origin already caches half the access set; peer 2 resolves
	// the conflict but holds only 1 object — less than the origin — so
	// the MinShipData gate must keep the transaction home, producing
	// one firm commit request.
	r.seed(41, lockmgr.ModeShared, false, 0)
	r.seed(42, lockmgr.ModeShared, false, 0)
	ops := []txn.Op{{Obj: 40}, {Obj: 41}, {Obj: 42}, {Obj: 43}}
	tx := r.newTxn(ops, time.Minute)
	r.cl.submitAsync(tx)
	r.sent(time.Second)
	r.inject(netsim.KindLockReply, &proto.Locations{
		Txn:        tx.ID,
		Objs:       []proto.ObjConflict{{Obj: 40, Holders: []netsim.SiteID{2}}},
		DataCounts: []proto.SiteCount{{Site: 2, Count: 1}},
	})
	msgs := r.sent(2 * time.Second)
	if tx.Shipped {
		t.Fatal("data-poor target should not receive the transaction")
	}
	if len(msgs) != 1 {
		t.Fatalf("messages = %+v", msgs)
	}
	if request(msgs[0].Payload, proto.OpCommit) == nil {
		t.Fatalf("expected a commit request, got %+v", msgs[0].Payload)
	}
}

func TestClientMigrationForwardOnCommit(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	tx := r.newTxn([]txn.Op{{Obj: 50, Write: true}}, time.Minute)
	r.cl.submitAsync(tx)
	r.sent(time.Second) // probe out
	// Grant arrives as a migration hop with peer 2 next in line.
	fwd := forward.NewList(50)
	fwd.Insert(forward.Entry{Client: 2, Mode: lockmgr.ModeExclusive, Deadline: time.Hour, Txn: 99})
	r.inject(netsim.KindObjectShip, proto.ObjGrant{
		Obj: 50, Mode: lockmgr.ModeExclusive, Version: 4, Fwd: fwd,
	})
	r.env.Run(30 * time.Second)
	if tx.Status != txn.StatusCommitted {
		t.Fatalf("status = %v", tx.Status)
	}
	m, ok := r.peer.TryGet()
	if !ok || m.Kind != netsim.KindClientForward {
		t.Fatalf("peer message = %+v", m)
	}
	g := m.Payload.(*proto.GrantMsg).Grants[0]
	if g.Obj != 50 || g.Version != 5 { // committed write bumped it
		t.Fatalf("forwarded grant = %+v", g)
	}
	if r.cl.objects.Peek(50) != nil {
		t.Fatal("exclusive migration must not leave a copy behind")
	}
	if r.cl.ForwardHops != 1 {
		t.Fatalf("hops = %d", r.cl.ForwardHops)
	}
}

func TestClientMigrationFinalReturnRetainsSharedCopy(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	tx := r.newTxn([]txn.Op{{Obj: 60, Write: true}}, time.Minute)
	r.cl.submitAsync(tx)
	r.sent(time.Second)
	fwd := forward.NewList(60) // empty: we are the last hop
	r.inject(netsim.KindObjectShip, proto.ObjGrant{
		Obj: 60, Mode: lockmgr.ModeExclusive, Version: 1, Fwd: fwd,
	})
	msgs := r.sent(30 * time.Second)
	var ret *proto.ObjReturn
	for _, m := range msgs {
		if p, ok := m.Payload.(*proto.ObjReturn); ok {
			ret = p
		}
	}
	if ret == nil || !ret.Migration || !ret.HasData || ret.Version != 2 {
		t.Fatalf("final return = %+v", ret)
	}
	if ret.Fwd != fwd || len(fwd.Retained) != 1 || fwd.Retained[0] != 1 {
		t.Fatalf("retained = %v on %p, want the list shipped with the grant", fwd.Retained, ret.Fwd)
	}
	e := r.cl.objects.Peek(60)
	if e == nil || e.Mode() != lockmgr.ModeShared || e.Dirty() {
		t.Fatalf("retained entry = %+v", e)
	}
}

func TestClientReadRunHopForwardsImmediately(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	// No local waiter any more: a read-run hop should still cache the
	// copy (we are a registered SL holder) and forward at once.
	r.asked(70)
	fwd := forward.NewList(70)
	fwd.ReadRun = true
	fwd.Insert(forward.Entry{Client: 2, Mode: lockmgr.ModeShared, Deadline: time.Hour, Txn: 7})
	r.inject(netsim.KindClientForward, proto.ObjGrant{
		Obj: 70, Mode: lockmgr.ModeShared, Version: 3, Fwd: fwd,
	})
	r.env.Run(time.Second)
	if r.cl.objects.Peek(70) == nil {
		t.Fatal("read-run copy not cached")
	}
	m, ok := r.peer.TryGet()
	if !ok || m.Kind != netsim.KindClientForward {
		t.Fatalf("peer message = %+v", m)
	}
	if r.cl.ForwardHops != 1 {
		t.Fatalf("hops = %d", r.cl.ForwardHops)
	}
}

func TestClientReadRunLastMemberAcknowledges(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	r.asked(71)
	fwd := forward.NewList(71)
	fwd.ReadRun = true // empty: we are the last member
	r.inject(netsim.KindClientForward, proto.ObjGrant{
		Obj: 71, Mode: lockmgr.ModeShared, Version: 2, Fwd: fwd,
	})
	msgs := r.sent(time.Second)
	if len(msgs) != 1 {
		t.Fatalf("messages = %+v", msgs)
	}
	ret := msgs[0].Payload.(*proto.ObjReturn)
	if !ret.RunComplete {
		t.Fatalf("expected run-complete acknowledgement, got %+v", ret)
	}
	if r.cl.objects.Peek(71) == nil {
		t.Fatal("last member should keep its copy")
	}
}

// TestClientStaleNumberGrantIsDropped: a recall beat the grants of an
// open request to the wire. The NotCached answer gives the request a
// fresh number at the shard, so both grants under the old one are
// dropped, and one the shard decided after processing the answer —
// under its number — is accepted.
func TestClientStaleNumberGrantIsDropped(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	old := r.asked(8)
	r.inject(netsim.KindRecall, proto.Recall{Obj: 8})
	msgs := r.sent(time.Second)
	if len(msgs) != 1 {
		t.Fatalf("recall answered with %+v", msgs)
	}
	rel := msgs[0].Payload.(*proto.ObjReturn).Num
	for i := range 2 {
		r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 8, Mode: lockmgr.ModeShared, Version: 1, Num: old})
		r.sent(time.Duration(2+i) * time.Second)
		if r.cl.objects.Peek(8) != nil {
			t.Fatalf("stale grant %d was cached", i+1)
		}
	}
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 8, Mode: lockmgr.ModeShared, Version: 2, Num: rel})
	r.sent(4 * time.Second)
	if r.cl.objects.Peek(8) == nil {
		t.Fatal("the grant under the release's number was dropped")
	}
}

func TestClientEvictionReturnsDirtyObjects(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.ClientMemory = 1
		c.ClientDisk = 0
	})
	defer r.env.Close()
	r.seed(1, lockmgr.ModeExclusive, true, 5)
	// Inserting a second object evicts the first; the dirty EL copy
	// must be returned to the server.
	r.asked(2)
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 2, Mode: lockmgr.ModeShared, Version: 1})
	msgs := r.sent(time.Second)
	if len(msgs) != 1 {
		t.Fatalf("messages = %+v", msgs)
	}
	ret := msgs[0].Payload.(*proto.ObjReturn)
	if ret.Obj != 1 || !ret.HasData || ret.Version != 5 {
		t.Fatalf("eviction return = %+v", ret)
	}
}

func TestClientEvictionDropsCleanSharedSilently(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.ClientMemory = 1
		c.ClientDisk = 0
	})
	defer r.env.Close()
	r.seed(1, lockmgr.ModeShared, false, 0)
	r.asked(2)
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 2, Mode: lockmgr.ModeShared, Version: 1})
	msgs := r.sent(time.Second)
	if len(msgs) != 0 {
		t.Fatalf("clean SL eviction sent messages: %+v", msgs)
	}
}

func TestClientDeniedTransactionAborts(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	tx := r.newTxn([]txn.Op{{Obj: 80}}, time.Minute)
	r.cl.submitAsync(tx)
	r.sent(time.Second)
	r.inject(netsim.KindLockReply, &proto.DenyReply{Txn: tx.ID, Reason: proto.DenyDeadlock})
	r.env.Run(5 * time.Second)
	if tx.Status != txn.StatusAborted {
		t.Fatalf("status = %v", tx.Status)
	}
}

func TestClientDeadlineTimeoutWhileFetching(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	tx := r.newTxn([]txn.Op{{Obj: 90}}, 2*time.Second)
	r.cl.submitAsync(tx)
	r.sent(time.Second)
	// The server never answers; the transaction must terminate at its
	// deadline.
	r.env.Run(10 * time.Second)
	if tx.Status != txn.StatusMissed {
		t.Fatalf("status = %v", tx.Status)
	}
	if len(r.cl.pending) != 0 {
		t.Fatalf("pending leaked: %d", len(r.cl.pending))
	}
	// The request stays open, late, for a grant still on the wire — and
	// only until no grant can be.
	if len(r.cl.objs) != 1 || len(r.cl.objs[0].waiters) != 0 || len(r.cl.objs[0].reqs) != 1 {
		t.Fatalf("object records after the deadline: %d", len(r.cl.objs))
	}
	num := r.cl.objs[0].reqs[0].num
	r.env.Run(r.cl.lateUntil(tx.Deadline) + time.Second)
	// The next record taken hands back the one that held only the
	// expired request.
	next := r.cl.recFor(91)
	if len(r.cl.objs) != 1 || r.cl.objs[0] != next {
		t.Fatalf("object records after the horizon: %d, want only the new one", len(r.cl.objs))
	}
	r.cl.settle(next)
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 90, Mode: lockmgr.ModeShared, Num: num})
	r.env.Run(r.env.Now() + time.Second)
	if r.cl.objects.Peek(90) != nil {
		t.Fatal("a grant past the late horizon was cached")
	}
}

func TestClientLoadReportShape(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	lr := r.cl.loadReport()
	if lr.Client != 1 || !lr.Valid {
		t.Fatalf("report = %+v", lr)
	}
	if lr.ATL != r.cl.cfg.MeanLength {
		t.Fatalf("default ATL = %v", lr.ATL)
	}
}

func TestClientSpeculationOverlapsUpgrade(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.UseSpeculation = true })
	defer r.env.Close()
	// Both objects cached shared; the transaction writes one, so only
	// the upgrade round trip separates it from running. With
	// speculation the computation overlaps the fetch and the commit
	// completes earlier than length+RTT.
	r.seed(1, lockmgr.ModeShared, false, 4)
	r.seed(2, lockmgr.ModeShared, false, 0)
	tx := r.newTxn([]txn.Op{{Obj: 1, Write: true}, {Obj: 2}}, time.Minute)
	tx.Length = 10 * time.Second
	r.cl.submitAsync(tx)
	r.sent(time.Second) // probe for the upgrade goes out
	// Server takes 5 seconds to grant the EL upgrade.
	r.env.Run(5 * time.Second)
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 1, Mode: lockmgr.ModeExclusive, Version: 4})
	r.env.Run(30 * time.Second)
	if tx.Status != txn.StatusCommitted {
		t.Fatalf("status = %v", tx.Status)
	}
	if r.cl.m.SpeculativeRuns != 1 || r.cl.m.SpeculationHits != 1 {
		t.Fatalf("spec runs/hits = %d/%d", r.cl.m.SpeculativeRuns, r.cl.m.SpeculationHits)
	}
	// Finished well before the non-speculative 5s + 10s.
	if tx.Finished >= 14*time.Second {
		t.Fatalf("finished at %v; speculation gave no overlap", tx.Finished)
	}
}

func TestClientSpeculationInvalidatedByNewVersion(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.UseSpeculation = true })
	defer r.env.Close()
	r.seed(1, lockmgr.ModeShared, false, 4)
	tx := r.newTxn([]txn.Op{{Obj: 1, Write: true}}, time.Minute)
	tx.Length = 10 * time.Second
	r.cl.submitAsync(tx)
	r.sent(time.Second)
	r.env.Run(5 * time.Second)
	// The upgrade arrives with a NEWER version: the speculative work
	// was based on stale data and must be discarded.
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 1, Mode: lockmgr.ModeExclusive, Version: 9})
	r.env.Run(40 * time.Second)
	if tx.Status != txn.StatusCommitted {
		t.Fatalf("status = %v", tx.Status)
	}
	if r.cl.m.SpeculationHits != 0 {
		t.Fatalf("stale speculation validated: hits = %d", r.cl.m.SpeculationHits)
	}
	// Full re-execution: commit no earlier than grant + length.
	if tx.Finished < 15*time.Second {
		t.Fatalf("finished at %v; invalid speculation must not shorten execution", tx.Finished)
	}
}

func TestClientSpeculationDisabledByDefault(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	r.seed(1, lockmgr.ModeShared, false, 4)
	tx := r.newTxn([]txn.Op{{Obj: 1, Write: true}}, time.Minute)
	r.cl.submitAsync(tx)
	r.sent(time.Second)
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 1, Mode: lockmgr.ModeExclusive, Version: 4})
	r.env.Run(30 * time.Second)
	if r.cl.m.SpeculativeRuns != 0 {
		t.Fatalf("speculation ran while disabled: %d", r.cl.m.SpeculativeRuns)
	}
}

func TestClientSequentialFetchFlow(t *testing.T) {
	// Shipped-in transactions (origin=false) fetch firm and
	// sequentially: one request at a time.
	r := newRig(t, nil)
	defer r.env.Close()
	tx := r.newTxn([]txn.Op{{Obj: 100}, {Obj: 101}}, time.Minute)
	tx.Origin = 2 // shipped in from peer 2
	r.inject(netsim.KindTxnShip, &proto.TxnShip{T: tx})
	msgs := r.sent(time.Second)
	if len(msgs) != 1 {
		t.Fatalf("want one sequential request first, got %+v", msgs)
	}
	req := request(msgs[0].Payload, proto.OpCommit)
	if req == nil || len(req.Objs) != 1 || req.Objs[0] != 100 {
		t.Fatalf("first request = %+v", req)
	}
	// Grant the first; the second request follows.
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 100, Mode: lockmgr.ModeShared, Version: 1})
	msgs = r.sent(2 * time.Second)
	if len(msgs) != 1 || request(msgs[0].Payload, proto.OpCommit) == nil ||
		!slices.Equal(msgs[0].Payload.(*proto.ObjRequest).Objs, []lockmgr.ObjectID{101}) {
		t.Fatalf("second round = %+v", msgs)
	}
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 101, Mode: lockmgr.ModeShared, Version: 1})
	r.env.Run(30 * time.Second)
	if tx.Status != txn.StatusCommitted {
		t.Fatalf("status = %v", tx.Status)
	}
	// The result is reported to the origin peer.
	found := false
	for {
		m, ok := r.peer.TryGet()
		if !ok {
			break
		}
		if res, isRes := m.Payload.(*proto.TxnResult); isRes && res.Committed {
			found = true
		}
	}
	if !found {
		t.Fatal("no TxnResult sent to the origin")
	}
}

func TestClientH1RejectionShipsViaLoadQuery(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.ClientExecutors = 1 })
	defer r.env.Close()
	// Occupy the single executor with a long transaction so H1 fails
	// for the next ones.
	r.seed(1, lockmgr.ModeShared, false, 0)
	blocker := r.newTxn([]txn.Op{{Obj: 1}}, 10*time.Minute)
	blocker.Length = 3 * time.Minute
	r.cl.submitAsync(blocker)
	r.env.Run(time.Second)
	// Queue several more to build a waiting line.
	for i := 0; i < 3; i++ {
		w := r.newTxn([]txn.Op{{Obj: 1}}, 10*time.Minute)
		w.Length = 3 * time.Minute
		r.cl.submitAsync(w)
	}
	r.sent(2 * time.Second)
	// This one cannot make its short deadline behind the queue: it must
	// query the server for candidate sites.
	tight := r.newTxn([]txn.Op{{Obj: 2}}, 25*time.Second)
	r.cl.submitAsync(tight)
	msgs := r.sent(3 * time.Second)
	var q *proto.ObjRequest
	for _, m := range msgs {
		if lq := request(m.Payload, proto.OpLocate); lq != nil {
			q = lq
		}
	}
	if q == nil {
		t.Fatalf("no location query sent; messages = %+v", msgs)
	}
	// Peer 2 holds the data and is idle: the reply ships the txn there.
	r.inject(netsim.KindLoadReply, &proto.Locations{
		Txn:   tight.ID,
		Objs:  []proto.ObjConflict{{Obj: 2, Holders: []netsim.SiteID{2}}},
		Loads: []proto.LoadReport{{Client: 2, QueueLen: 0, ATL: time.Second, Valid: true}},
	})
	r.env.Run(r.env.Now() + 2*time.Second)
	if !tight.Shipped {
		t.Fatal("H1-rejected transaction was not shipped")
	}
	m, ok := r.peer.TryGet()
	if !ok || m.Kind != netsim.KindTxnShip {
		t.Fatalf("peer message = %+v", m)
	}
}

func TestClientDecomposition(t *testing.T) {
	r := newRig(t, nil)
	defer r.env.Close()
	tx := r.newTxn([]txn.Op{{Obj: 10}, {Obj: 11}, {Obj: 20}, {Obj: 21}}, 5*time.Minute)
	tx.Decomposable = true
	tx.Length = 2 * time.Second
	r.cl.submitAsync(tx)
	msgs := r.sent(time.Second)
	if len(msgs) != 1 {
		t.Fatalf("messages = %+v", msgs)
	}
	if request(msgs[0].Payload, proto.OpLocate) == nil {
		t.Fatalf("decomposable txn should query locations, got %T", msgs[0].Payload)
	}
	// Peer 2 solely holds objects 20 and 21: two groups form, the
	// remote one ships as a subtask.
	r.inject(netsim.KindLoadReply, &proto.Locations{
		Txn: tx.ID,
		Objs: []proto.ObjConflict{
			{Obj: 20, Holders: []netsim.SiteID{2}},
			{Obj: 21, Holders: []netsim.SiteID{2}},
		},
	})
	r.env.Run(r.env.Now() + 2*time.Second)
	m, ok := r.peer.TryGet()
	if !ok || m.Kind != netsim.KindTxnShip {
		t.Fatalf("peer message = %+v", m)
	}
	ship := m.Payload.(*proto.TxnShip)
	if ship.Sub == nil || len(ship.Sub.Ops) != 2 {
		t.Fatalf("subtask = %+v", ship.Sub)
	}
	// Local subtask fetches its own objects.
	if r.cl.m.DecomposedTxns != 1 || r.cl.m.SubtasksRun != 2 {
		t.Fatalf("decomposed=%d subtasks=%d", r.cl.m.DecomposedTxns, r.cl.m.SubtasksRun)
	}
	// Answer the local subtask's needs and the remote result; the
	// parent synthesizes.
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 10, Mode: lockmgr.ModeShared, Version: 0})
	r.env.Run(r.env.Now() + time.Second) // the sequential fetch asks for 11 next
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 11, Mode: lockmgr.ModeShared, Version: 0})
	r.env.Run(r.env.Now() + 10*time.Second)
	r.inject(netsim.KindTxnResult, &proto.TxnResult{T: tx, SubIndex: ship.Sub.Index, IsSub: true, Committed: true})
	r.env.Run(r.env.Now() + 10*time.Second)
	if tx.Status != txn.StatusCommitted {
		t.Fatalf("parent status = %v", tx.Status)
	}
}

func TestClientOutageWipesCleanKeepsLoggedDirty(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.UseLogging = true
		c.OutageClient = 1
		c.OutageAt = time.Minute
		c.OutageDuration = 30 * time.Second
	})
	defer r.env.Close()
	r.seed(1, lockmgr.ModeShared, false, 0)   // clean: wiped
	r.seed(2, lockmgr.ModeExclusive, true, 3) // dirty + WAL: survives
	r.env.At(r.cl.cfg.OutageAt, r.cl.beginOutage)
	r.env.Run(2 * time.Minute)
	if r.cl.objects.Peek(1) != nil {
		t.Fatal("clean copy survived the outage")
	}
	if r.cl.objects.Peek(2) == nil {
		t.Fatal("logged dirty copy did not survive")
	}
	if r.cl.LostUpdates != 0 {
		t.Fatalf("lost updates = %d with WAL on", r.cl.LostUpdates)
	}
}

// TestClientOutageHoldsInboxUntilRestart: messages delivered while the
// client is partitioned stay queued in its inbox — none is handled
// during the outage — and are handled at the outage's end, in the order
// they arrived, all in one event: the inbox's reader posts itself for
// the end when the first arrives, and the later ones post nothing.
func TestClientOutageHoldsInboxUntilRestart(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.UseLogging = true // the dirty copies survive the outage
		c.OutageClient = 1
		c.OutageAt = time.Minute
		c.OutageDuration = 30 * time.Second
	})
	defer r.env.Close()
	end := r.cl.cfg.OutageAt + r.cl.cfg.OutageDuration
	order := []lockmgr.ObjectID{7, 5, 6}
	for _, obj := range order {
		r.seed(obj, lockmgr.ModeExclusive, true, int64(obj))
	}
	r.env.At(r.cl.cfg.OutageAt, r.cl.beginOutage)
	for i, obj := range order {
		r.env.At(r.cl.cfg.OutageAt+time.Duration(i+1)*5*time.Second, func() {
			r.inject(netsim.KindRecall, proto.Recall{Obj: obj})
		})
	}
	if msgs := r.sent(end - time.Millisecond); len(msgs) != 0 {
		t.Fatalf("%d messages sent during the outage, want none: %+v", len(msgs), msgs)
	}
	steps := r.env.Steps()
	r.env.Run(end)
	if n := r.env.Steps() - steps; n != 1 {
		t.Errorf("the held messages took %d events at the outage's end, want 1", n)
	}
	msgs := r.sent(end + time.Second)
	if len(msgs) != len(order) {
		t.Fatalf("%d messages after the outage, want a return per recall: %+v", len(msgs), msgs)
	}
	for i, m := range msgs {
		ret, ok := m.Payload.(*proto.ObjReturn)
		if !ok || ret.Obj != order[i] || m.SentAt != end {
			t.Errorf("message %d: %+v sent at %v, want the return of %d at %v", i, m.Payload, m.SentAt, order[i], end)
		}
	}
}

// TestClientGrantCrossingDowngradeIsDropped: a downgrade gives the
// exclusive registration up as a release does, so it revokes a grant the
// shard sent before it processed the downgrade. A writer of object 9
// gives up waiting; a second writer's request follows; the first
// request's grant arrives late and satisfies the second, so the grant of
// the second request — decided at the shard before the downgrade — is
// still on the wire when a recall asks the copy down to SL. Cached, it
// would raise the shared copy back to EL behind the shard's back.
func TestClientGrantCrossingDowngradeIsDropped(t *testing.T) {
	e := grantCrossing(t, true)
	if e == nil || e.Mode() != lockmgr.ModeShared {
		t.Fatalf("copy after the crossing grant = %+v, want the downgrade's SL", e)
	}
}

// TestClientGrantCrossingGiveUpIsDropped: the same grant crossing a
// recall answered with the copy is dropped: nothing is cached.
func TestClientGrantCrossingGiveUpIsDropped(t *testing.T) {
	if e := grantCrossing(t, false); e != nil {
		t.Fatalf("the crossing grant was cached: %+v", e)
	}
}

// grantCrossing leaves two requests of object 9 open, the first late, the
// second a waiting writer's; the first one's grant satisfies the writer.
// It then answers a recall of the copy — a downgrade or a give-up — and
// delivers the grant of the second request, which the shard sent before
// it processed the answer. It returns the cached copy afterwards.
func grantCrossing(t *testing.T, downgrade bool) *cache.Entry {
	r := newRig(t, func(c *config.Config) { c.UseH2 = false })
	t.Cleanup(r.env.Close)
	var nums []int64
	ask := func(slack time.Duration, until time.Duration) *txn.Transaction {
		tx := r.newTxn([]txn.Op{{Obj: 9, Write: true}}, slack)
		r.cl.submitAsync(tx)
		for _, m := range r.sent(until) {
			if q := request(m.Payload, proto.OpCommit); q != nil {
				nums = append(nums, q.Nums...)
			}
		}
		return tx
	}
	gaveUp := ask(2*time.Second, 3*time.Second)
	writer := ask(time.Minute, 4*time.Second)
	if len(nums) != 2 || nums[0] == nums[1] || gaveUp.Status != txn.StatusMissed {
		t.Fatalf("request numbers = %v with the first writer %v, want two and a miss", nums, gaveUp.Status)
	}
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 9, Mode: lockmgr.ModeExclusive, Version: 1, Num: nums[0]})
	r.env.Run(10 * time.Second)
	if writer.Status != txn.StatusCommitted {
		t.Fatalf("writer ended %v, want committed off the late grant", writer.Status)
	}
	r.inject(netsim.KindRecall, proto.Recall{Obj: 9, DowngradeToShared: downgrade, HolderMode: lockmgr.ModeExclusive})
	msgs := r.sent(11 * time.Second)
	if len(msgs) != 1 || msgs[0].Payload.(*proto.ObjReturn).Downgraded != downgrade {
		t.Fatalf("recall answered with %+v", msgs)
	}
	r.inject(netsim.KindObjectShip, proto.ObjGrant{Obj: 9, Mode: lockmgr.ModeExclusive, Version: 1, Num: nums[1]})
	r.env.Run(12 * time.Second)
	return r.cl.objects.Peek(9)
}
