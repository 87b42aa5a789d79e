package server

import (
	"slices"
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// rig wires a server with scripted clients whose inboxes the test
// reads directly.
type rig struct {
	env    *sim.Env
	net    *netsim.Network
	srv    *Server
	to     []*sim.Mailbox[netsim.Message] // by client id: its connection queue at the server
	inbox  []*sim.Mailbox[netsim.Message] // by client id: its message queue
	t      *testing.T
	nextTx int64
}

// newRig attaches clients 1..n.
func newRig(t *testing.T, n int, mod func(*config.Config)) *rig {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	return newRigSites(t, ids, mod)
}

// newRigSites attaches exactly the clients named, in the order given.
func newRigSites(t *testing.T, ids []int, mod func(*config.Config)) *rig {
	t.Helper()
	n := slices.Max(ids)
	env := sim.NewEnv()
	cfg := config.Default(n, 0.05)
	cfg.ServerOpCPU = time.Millisecond
	cfg.DiskRead = time.Millisecond
	cfg.DiskWrite = time.Millisecond
	if mod != nil {
		mod(&cfg)
	}
	net := netsim.New(env, netsim.Config{Latency: 100 * time.Microsecond, BandwidthBps: 10e6})
	srv := NewShard(env, &cfg, net, &proto.Pool{}, nil, 0, shardmap.New(cfg.Sharding))
	r := &rig{env: env, net: net, srv: srv, t: t}
	r.to = make([]*sim.Mailbox[netsim.Message], n+1)
	r.inbox = make([]*sim.Mailbox[netsim.Message], n+1)
	for _, id := range ids {
		r.to[id] = sim.NewMailbox[netsim.Message](env)
		r.inbox[id] = sim.NewMailbox[netsim.Message](env)
		srv.Attach(netsim.SiteID(id), r.to[id], r.inbox[id])
	}
	srv.Start()
	return r
}

func (r *rig) send(from int, kind netsim.Kind, payload any) {
	r.net.Send(netsim.Message{
		Kind: kind, From: netsim.SiteID(from), To: netsim.ServerSite,
		Size: netsim.ControlBytes, Payload: payload,
	}, r.to[from])
}

func (r *rig) request(from int, obj lockmgr.ObjectID, mode lockmgr.Mode, deadline time.Duration) {
	r.nextTx++
	r.send(from, netsim.KindObjectRequest, &proto.ObjRequest{
		Op: proto.OpCommit, Client: netsim.SiteID(from), Txn: txn.ID(r.nextTx), Deadline: deadline,
		Objs: []lockmgr.ObjectID{obj}, Modes: []lockmgr.Mode{mode},
	})
}

// drain runs the clock forward and returns everything client id
// received.
func (r *rig) drain(id int, until time.Duration) []netsim.Message {
	r.env.Run(until)
	var out []netsim.Message
	for {
		m, ok := r.inbox[id].TryGet()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

func TestServerGrantsFreeObject(t *testing.T) {
	r := newRig(t, 2, nil)
	defer r.env.Close()
	r.request(1, 42, lockmgr.ModeExclusive, time.Minute)
	msgs := r.drain(1, time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
		t.Fatalf("messages = %+v", msgs)
	}
	g := msgs[0].Payload.(*proto.GrantMsg).Grants[0]
	if g.Obj != 42 || g.Mode != lockmgr.ModeExclusive {
		t.Fatalf("grant = %+v", g)
	}
	if r.srv.locks.HolderMode(42, 1) != lockmgr.ModeExclusive {
		t.Fatal("lock not registered")
	}
}

// TestStartServesEveryAttachedSite: a handler runs for every attached
// connection, whatever the ids — sites 2 and 7 alone are both answered
// (counting the connections and walking ids 1..count gave site 7 none),
// each by its own element of the array Start carves: two handlers, not
// one per slot of the site table.
func TestStartServesEveryAttachedSite(t *testing.T) {
	r := newRigSites(t, []int{7, 2}, nil)
	defer r.env.Close()
	r.env.RunAll() // a handler's first resume is one event; it parks on its inbox
	if got := r.env.Steps(); got != 2 {
		t.Fatalf("%d handlers spawned for two attached sites", got)
	}
	for _, id := range []int{2, 7} {
		r.request(id, lockmgr.ObjectID(40+id), lockmgr.ModeExclusive, time.Minute)
	}
	for _, id := range []int{2, 7} {
		msgs := r.drain(id, time.Second)
		if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
			t.Errorf("site %d received %+v, want its object shipped", id, msgs)
		}
	}
}

func TestServerDeniesExpiredRequest(t *testing.T) {
	r := newRig(t, 1, nil)
	defer r.env.Close()
	r.env.Run(time.Minute) // advance past the deadline below
	r.request(1, 1, lockmgr.ModeShared, time.Second)
	msgs := r.drain(1, 2*time.Minute)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindLockReply {
		t.Fatalf("messages = %+v", msgs)
	}
	d := msgs[0].Payload.(*proto.DenyReply)
	if d.Reason != proto.DenyExpired {
		t.Fatalf("reason = %v", d.Reason)
	}
	if r.srv.DeniesExpired != 1 {
		t.Fatalf("DeniesExpired = %d", r.srv.DeniesExpired)
	}
}

func TestServerRecallsConflictingHolder(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) { c.UseForwardLists = false })
	defer r.env.Close()
	r.request(1, 7, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, time.Second)
	// Client 2 wants the object shared: client 1 must get a downgrade
	// recall.
	r.request(2, 7, lockmgr.ModeShared, time.Minute)
	msgs := r.drain(1, 2*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindRecall {
		t.Fatalf("holder messages = %+v", msgs)
	}
	rec := msgs[0].Payload.(*proto.RecallMsg).Recalls[0]
	if !rec.DowngradeToShared {
		t.Fatal("SL demand should ask for a downgrade")
	}
	// Holder answers with a downgrade; client 2 must then be granted.
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{
		Client: 1, Obj: 7, Downgraded: true, HasData: true, Version: 1,
	})
	msgs = r.drain(2, 3*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
		t.Fatalf("waiter messages = %+v", msgs)
	}
	if r.srv.locks.HolderMode(7, 1) != lockmgr.ModeShared {
		t.Fatal("holder not downgraded in table")
	}
	if r.srv.locks.HolderMode(7, 2) != lockmgr.ModeShared {
		t.Fatal("waiter not granted")
	}
	if r.srv.Version(7) != 1 {
		t.Fatalf("version = %d", r.srv.Version(7))
	}
}

func TestServerProbeAllOrNothing(t *testing.T) {
	r := newRig(t, 2, nil)
	defer r.env.Close()
	// Client 1 takes object 5 exclusively.
	r.request(1, 5, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, time.Second)
	// Client 2 probes for objects 5 and 6: nothing may ship; the reply
	// must name client 1 as the conflict holder and count its data.
	r.send(2, netsim.KindObjectRequest, &proto.ObjRequest{
		Op: proto.OpProbe, Client: 2, Txn: 99,
		Objs:     []lockmgr.ObjectID{5, 6},
		Modes:    []lockmgr.Mode{lockmgr.ModeShared, lockmgr.ModeShared},
		Deadline: time.Minute,
	})
	msgs := r.drain(2, 2*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindLockReply {
		t.Fatalf("messages = %+v", msgs)
	}
	cr := msgs[0].Payload.(*proto.Locations)
	if len(cr.Objs) != 1 || cr.Objs[0].Obj != 5 {
		t.Fatalf("conflicts = %+v", cr.Objs)
	}
	if cr.Objs[0].Holders[0] != 1 {
		t.Fatalf("holders = %v", cr.Objs[0].Holders)
	}
	if len(cr.DataCounts) != 1 || cr.DataCounts[0].Site != 1 || cr.DataCounts[0].Count != 1 {
		t.Fatalf("data counts = %+v", cr.DataCounts)
	}
	if r.srv.locks.HolderMode(6, 2) != 0 {
		t.Fatal("probe must not grant the free object when any conflicts")
	}
}

func TestServerProbeGrantsWhenAllFree(t *testing.T) {
	r := newRig(t, 1, nil)
	defer r.env.Close()
	r.send(1, netsim.KindObjectRequest, &proto.ObjRequest{
		Op: proto.OpProbe, Client: 1, Txn: 5,
		Objs:     []lockmgr.ObjectID{10, 11, 12},
		Modes:    []lockmgr.Mode{lockmgr.ModeShared, lockmgr.ModeShared, lockmgr.ModeExclusive},
		Deadline: time.Minute,
	})
	msgs := r.drain(1, 2*time.Second)
	if len(msgs) != 3 {
		t.Fatalf("got %d messages, want 3 ships", len(msgs))
	}
	for _, m := range msgs {
		if m.Kind != netsim.KindObjectShip {
			t.Fatalf("kind = %v", m.Kind)
		}
	}
}

func TestServerForwardListMigration(t *testing.T) {
	r := newRig(t, 3, nil)
	defer r.env.Close()
	// Client 1 holds object 3 exclusively.
	r.request(1, 3, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, time.Second)
	// Clients 2 and 3 both want it exclusively: their requests must be
	// collected and dispatched as one migration after client 1 returns.
	r.request(2, 3, lockmgr.ModeExclusive, time.Minute)
	r.request(3, 3, lockmgr.ModeExclusive, 2*time.Minute)
	// Client 1 receives exactly one recall despite two waiters.
	msgs := r.drain(1, 3*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindRecall {
		t.Fatalf("holder messages = %+v", msgs)
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{
		Client: 1, Obj: 3, HasData: true, Version: 7,
	})
	// Client 2 (earlier deadline) gets the object with a forward list
	// naming client 3.
	msgs = r.drain(2, 5*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
		t.Fatalf("head messages = %+v", msgs)
	}
	g := msgs[0].Payload.(*proto.GrantMsg).Grants[0]
	if g.Fwd == nil || g.Fwd.Len() != 1 || g.Fwd.Entries[0].Client != 3 {
		t.Fatalf("forward list = %+v", g.Fwd)
	}
	if r.srv.MigrationsStarted != 1 {
		t.Fatalf("migrations = %d", r.srv.MigrationsStarted)
	}
	// The object is now checked out to the migration pseudo-owner.
	if r.srv.locks.HolderMode(3, MigrationOwner) != lockmgr.ModeExclusive {
		t.Fatal("migration pseudo-owner not holding")
	}
	// Final return releases it, and carries the spent list home.
	r.send(2, netsim.KindObjectReturn, &proto.ObjReturn{
		Client: 2, Obj: 3, HasData: true, Version: 9, Migration: true, Fwd: g.Fwd,
	})
	r.env.Run(r.env.Now() + time.Second)
	if r.srv.locks.HolderMode(3, MigrationOwner) != 0 {
		t.Fatal("migration lock not released on final return")
	}
	if r.srv.Version(3) != 9 {
		t.Fatalf("version = %d", r.srv.Version(3))
	}
}

func TestServerParallelReadRun(t *testing.T) {
	r := newRig(t, 3, nil)
	defer r.env.Close()
	// Client 1 holds EL; clients 2 and 3 want SL.
	r.request(1, 4, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, time.Second)
	r.request(2, 4, lockmgr.ModeShared, time.Minute)
	r.request(3, 4, lockmgr.ModeShared, 2*time.Minute)
	r.drain(1, 2*time.Second)
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{
		Client: 1, Obj: 4, Downgraded: true, HasData: true, Version: 2,
	})
	// The read run ships once to client 2 with a ReadRun list for 3;
	// both are registered SL holders immediately.
	msgs := r.drain(2, 5*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
		t.Fatalf("head messages = %+v", msgs)
	}
	g := msgs[0].Payload.(*proto.GrantMsg).Grants[0]
	if g.Fwd == nil || !g.Fwd.ReadRun {
		t.Fatalf("expected a read-run list, got %+v", g.Fwd)
	}
	if r.srv.locks.HolderMode(4, 2) != lockmgr.ModeShared ||
		r.srv.locks.HolderMode(4, 3) != lockmgr.ModeShared {
		t.Fatal("read-run members not registered as SL holders")
	}
}

func TestServerNotCachedReturnReleasesLock(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) { c.UseForwardLists = false })
	defer r.env.Close()
	r.request(1, 8, lockmgr.ModeShared, time.Minute)
	r.drain(1, time.Second)
	// Client 2 wants EL; client 1 silently dropped the object earlier
	// and answers NotCached.
	r.request(2, 8, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, 2*time.Second)
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 8})
	msgs := r.drain(2, 3*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
		t.Fatalf("waiter messages = %+v", msgs)
	}
	if r.srv.locks.HolderMode(8, 1) != 0 {
		t.Fatal("NotCached return did not release the lock")
	}
}

func TestServerLoadQueryReportsHoldersAndLoads(t *testing.T) {
	r := newRig(t, 2, nil)
	defer r.env.Close()
	r.request(1, 9, lockmgr.ModeShared, time.Minute)
	r.drain(1, time.Second)
	r.send(2, netsim.KindLoadQuery, &proto.ObjRequest{
		Op: proto.OpLocate, Client: 2, Txn: 77,
		Objs:  []lockmgr.ObjectID{9, 10},
		Modes: []lockmgr.Mode{lockmgr.ModeShared, lockmgr.ModeShared},
		Load:  proto.LoadReport{Client: 2, QueueLen: 3, ATL: time.Second, Valid: true},
	})
	msgs := r.drain(2, 2*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindLoadReply {
		t.Fatalf("messages = %+v", msgs)
	}
	lr := msgs[0].Payload.(*proto.Locations)
	if len(lr.Objs) != 1 || lr.Objs[0].Obj != 9 || lr.Objs[0].Holders[0] != 1 {
		t.Fatalf("locations = %+v", lr.Objs)
	}
	// The query's piggybacked load must now be in the load table.
	if got := r.srv.client(2).load; !got.Valid || got.QueueLen != 3 {
		t.Fatalf("load table entry = %+v", got)
	}
}

func TestServerSingleWaiterNoMigration(t *testing.T) {
	r := newRig(t, 2, nil)
	defer r.env.Close()
	r.request(1, 6, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, time.Second)
	r.request(2, 6, lockmgr.ModeExclusive, time.Minute)
	r.drain(1, 2*time.Second)
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 6, HasData: true, Version: 1})
	msgs := r.drain(2, 3*time.Second)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
		t.Fatalf("messages = %+v", msgs)
	}
	g := msgs[0].Payload.(*proto.GrantMsg).Grants[0]
	if g.Fwd != nil {
		t.Fatal("sole waiter should get a plain grant, not a migration")
	}
	if r.srv.MigrationsStarted != 0 {
		t.Fatalf("migrations = %d", r.srv.MigrationsStarted)
	}
}

// grantTo runs the clock to until and returns the one grant client id
// was shipped meanwhile.
func (r *rig) grantTo(id int, until time.Duration) proto.ObjGrant {
	r.t.Helper()
	msgs := r.drain(id, until)
	if len(msgs) != 1 || msgs[0].Kind != netsim.KindObjectShip {
		r.t.Fatalf("client %d messages = %+v, want one ship", id, msgs)
	}
	return msgs[0].Payload.(*proto.GrantMsg).Grants[0]
}

// TestServerGrantCrossingRelease: a grant is stamped with the release
// epoch the server held when it registered the lock, so one that crosses
// the client's next release on the wire echoes an epoch below the
// client's own and is dropped there; only a grant decided after the
// return was processed carries the new epoch, and the retransmitted copy
// of an earlier return never lowers it.
func TestServerGrantCrossingRelease(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) { c.UseForwardLists = false })
	defer r.env.Close()
	r.request(1, 7, lockmgr.ModeShared, time.Minute)
	if g := r.grantTo(1, time.Second); g.Epoch != 0 {
		t.Fatalf("first grant carries epoch %d, want 0", g.Epoch)
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Epoch: 1})
	r.request(1, 7, lockmgr.ModeShared, time.Minute)
	if g := r.grantTo(1, 2*time.Second); g.Epoch != 1 {
		t.Fatalf("grant after the release carries epoch %d, want 1", g.Epoch)
	}
	// The upgrade request and the release of the shared copy cross: the
	// server decides the grant first, at epoch 1, and the release — the
	// client's epoch 2 — takes the registration away under it.
	r.request(1, 7, lockmgr.ModeExclusive, time.Minute)
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Epoch: 2})
	if g := r.grantTo(1, 3*time.Second); g.Epoch != 1 {
		t.Fatalf("crossing grant carries epoch %d, want the stale 1", g.Epoch)
	}
	if r.srv.locks.HolderMode(7, 1) != 0 {
		t.Fatal("the crossing release left the lock registered")
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Epoch: 1})
	r.request(1, 7, lockmgr.ModeShared, time.Minute)
	if g := r.grantTo(1, 4*time.Second); g.Epoch != 2 {
		t.Fatalf("grant after a duplicate of the first return carries epoch %d, want 2", g.Epoch)
	}
}

// TestServerEpochsPerClient: the epochs two clients report for one object
// are stamped into their own grants only, and no other object's.
func TestServerEpochsPerClient(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) { c.UseForwardLists = false })
	defer r.env.Close()
	r.send(2, netsim.KindObjectReturn, &proto.ObjReturn{Client: 2, Obj: 7, Epoch: 1})
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Epoch: 3})
	r.env.Run(time.Second)
	for _, c := range []struct {
		client int
		obj    lockmgr.ObjectID
		want   int64
	}{{1, 7, 3}, {2, 7, 1}, {1, 8, 0}, {2, 8, 0}} {
		r.request(c.client, c.obj, lockmgr.ModeShared, time.Minute)
		if g := r.grantTo(c.client, r.env.Now()+time.Second); g.Epoch != c.want {
			t.Errorf("client %d's grant of object %d carries epoch %d, want %d", c.client, c.obj, g.Epoch, c.want)
		}
	}
}

// TestServerEpochListSorted: an object returned by 150 clients and a
// replica shard, in no order, keeps one element a site, ascending, and
// every site's own epoch.
func TestServerEpochListSorted(t *testing.T) {
	r := newRig(t, 1, nil)
	defer r.env.Close()
	const obj, clients = 9, 150
	for k := 0; k < clients+2; k++ {
		site := netsim.SiteID((k*37)%(clients+2)) - 1 // every site of -1 (shard 1) … 150, 37 steps apart
		if site == 0 {
			continue // the shard the object is home at
		}
		for _, epoch := range []int64{1, int64(site) + 2, 2} {
			r.srv.returnNeedsWrite(proto.ObjReturn{Client: site, Obj: obj, Epoch: epoch})
		}
	}
	list := r.srv.find(obj).epochs
	if len(list) != clients+1 {
		t.Fatalf("%d sites returned the object, the list holds %d", clients+1, len(list))
	}
	for i, e := range list {
		if i > 0 && list[i-1].client >= e.client {
			t.Fatalf("list out of order at %d: site %d before site %d", i, list[i-1].client, e.client)
		}
		if want := max(int64(e.client)+2, 2); e.epoch != want || r.srv.epochOf(obj, e.client) != want {
			t.Fatalf("site %d's epoch reads %d, want %d", e.client, e.epoch, want)
		}
	}
	if got := r.srv.epochOf(obj, 0); got != 0 {
		t.Fatalf("a site that never returned reads epoch %d, want 0", got)
	}
}
