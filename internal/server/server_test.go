package server

import (
	"maps"
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
	return r
}

func (r *rig) send(from int, kind netsim.Kind, payload any) {
	r.net.Send(netsim.Message{
		Kind: kind, From: netsim.SiteID(from), To: netsim.ServerSite,
		Size: netsim.ControlBytes, Payload: payload,
	}, r.to[from])
}

func (r *rig) request(from int, obj lockmgr.ObjectID, mode lockmgr.Mode, deadline time.Duration) {
	r.requestNum(from, obj, mode, deadline, r.nextTx+1)
}

// requestNum sends a one-access commit request under request number num.
func (r *rig) requestNum(from int, obj lockmgr.ObjectID, mode lockmgr.Mode, deadline time.Duration, num int64) {
	r.nextTx++
	r.send(from, netsim.KindObjectRequest, &proto.ObjRequest{
		Op: proto.OpCommit, Client: netsim.SiteID(from), Txn: txn.ID(r.nextTx), Deadline: deadline,
		Objs: []lockmgr.ObjectID{obj}, Modes: []lockmgr.Mode{mode}, Nums: []int64{num},
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

// TestAttachServesEveryAttachedSite: every attached connection is
// served, whatever the ids — sites 2 and 7 alone are both answered
// (counting the connections and walking ids 1..count gave site 7 none) —
// and none runs anything until a message comes: attaching posts no
// event and adopts no machine, and a connection's machine, lent while it
// has a message in hand, is back in the shard's stock once the queue is
// dry.
func TestAttachServesEveryAttachedSite(t *testing.T) {
	r := newRigSites(t, []int{7, 2}, nil)
	defer r.env.Close()
	r.env.RunAll()
	if got := r.env.Steps(); got != 0 {
		t.Fatalf("%d events ran with no message sent, want none", got)
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
	if n := r.env.Live(); n != 0 {
		t.Errorf("%d machines live with every queue dry, want 0", n)
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
		Nums:     []int64{1, 2},
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
		Nums:     []int64{1, 2, 3},
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

// TestServerGrantCrossingRelease: a grant echoes the number of the
// request it answers, decided with the registration, so one that
// crosses the client's next release on the wire carries a number the
// client closed with that release; a request still queued when a
// release arrives takes the release's number, and so does its grant.
func TestServerGrantCrossingRelease(t *testing.T) {
	r := newRig(t, 3, func(c *config.Config) { c.UseForwardLists = false })
	defer r.env.Close()
	r.requestNum(1, 7, lockmgr.ModeShared, time.Minute, 5)
	if g := r.grantTo(1, time.Second); g.Num != 5 {
		t.Fatalf("grant carries number %d, want the request's 5", g.Num)
	}
	// The upgrade request and the release of the shared copy cross: the
	// server decides the grant first, under the request's number, and the
	// release takes the registration away under it.
	r.requestNum(1, 7, lockmgr.ModeExclusive, time.Minute, 6)
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Num: 7})
	if g := r.grantTo(1, 2*time.Second); g.Num != 6 {
		t.Fatalf("crossing grant carries number %d, want the closed 6", g.Num)
	}
	if r.srv.locks.HolderMode(7, 1) != 0 {
		t.Fatal("the crossing release left the lock registered")
	}
	// Client 2 holds the object; client 1's request queues behind it,
	// and client 1's release of the object (its earlier registration)
	// renumbers the queued request.
	r.requestNum(2, 7, lockmgr.ModeExclusive, time.Minute, 20)
	r.grantTo(2, 3*time.Second)
	r.requestNum(1, 7, lockmgr.ModeShared, time.Minute, 8)
	r.env.Run(4 * time.Second)
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Num: 9})
	r.send(2, netsim.KindObjectReturn, &proto.ObjReturn{Client: 2, Obj: 7, HasData: true, Version: 1, Num: 21})
	if g := r.grantTo(1, 5*time.Second); g.Num != 9 {
		t.Fatalf("grant of a request renumbered by a release carries %d, want 9", g.Num)
	}
}

// TestServerSkipsReturnOlderThanRegistration: a release the client sent
// before a request of the same object, but which reaches the shard after
// it (the fault layer reorders frames), gives up nothing the request's
// grant registered: the client accepts that grant, so the lock stays.
func TestServerSkipsReturnOlderThanRegistration(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) { c.UseForwardLists = false })
	defer r.env.Close()
	r.requestNum(1, 7, lockmgr.ModeShared, time.Minute, 5)
	r.grantTo(1, time.Second)
	r.requestNum(1, 7, lockmgr.ModeShared, time.Minute, 8) // sent after the return below
	if g := r.grantTo(1, 2*time.Second); g.Num != 8 {
		t.Fatalf("re-ship carries %d, want the request's 8", g.Num)
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Num: 6})
	r.env.Run(3 * time.Second)
	if r.srv.locks.HolderMode(7, 1) != lockmgr.ModeShared {
		t.Fatal("a return older than the registration released it")
	}
	// A request sent before return 10 and retransmitted after it carries
	// 10, the number the client expects its answer under; it overtakes
	// the return and is answered from the hold.
	r.requestNum(1, 7, lockmgr.ModeShared, time.Minute, 10)
	if g := r.grantTo(1, 4*time.Second); g.Num != 10 {
		t.Fatalf("re-ship carries %d, want the request's 10", g.Num)
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Num: 10})
	r.env.Run(5 * time.Second)
	if r.srv.locks.HolderMode(7, 1) != lockmgr.ModeShared {
		t.Fatal("a return numbered as the registration released it")
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Num: 11})
	r.env.Run(6 * time.Second)
	if r.srv.locks.HolderMode(7, 1) != 0 {
		t.Fatal("a return newer than the registration left it")
	}
}

// TestServerOvertakenExclusiveHold: under fault injection a request that
// overtook a return of its client's — it left the client after more
// returns than reached the shard — is not answered from the client's
// exclusive hold numbered below it: the return gave that hold up, with
// data newer than the shard's page. The grant carries the hold's number
// and the shard's version, and the client drops it; the return then
// installs its data and releases the hold, and the next request is
// registered anew at the new version.
func TestServerOvertakenExclusiveHold(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) { c.UseForwardLists, c.Faults.DupRate = false, 0.01 })
	defer r.env.Close()
	r.requestNum(1, 7, lockmgr.ModeExclusive, time.Minute, 5)
	if g := r.grantTo(1, time.Second); g.Num != 5 || g.Version != 0 {
		t.Fatalf("grant = %+v, want number 5 at version 0", g)
	}
	overtaking := func(num int64, returned int32) {
		r.nextTx++
		r.send(1, netsim.KindObjectRequest, &proto.ObjRequest{
			Op: proto.OpCommit, Client: 1, Txn: txn.ID(r.nextTx), Deadline: time.Minute, Returned: returned,
			Objs: []lockmgr.ObjectID{7}, Modes: []lockmgr.Mode{lockmgr.ModeExclusive}, Nums: []int64{num},
		})
	}
	// The client wrote version 1 and gave its copy up with return 6; a
	// request it sent next, numbered 8, arrives first.
	overtaking(8, 1)
	if g := r.grantTo(1, 2*time.Second); g.Num != 5 || r.srv.locks.HolderNum(7, 1, 0) != 5 {
		t.Fatalf("overtaking request answered under %d, hold numbered %d; want both 5", g.Num, r.srv.locks.HolderNum(7, 1, 0))
	}
	r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Num: 6, HasData: true, Version: 1})
	r.env.Run(3 * time.Second)
	if r.srv.locks.HolderMode(7, 1) != 0 || r.srv.Version(7) != 1 {
		t.Fatalf("after the return: hold %d, version %d; want none, 1", r.srv.locks.HolderMode(7, 1), r.srv.Version(7))
	}
	overtaking(8, 1) // the retransmission, now behind the return
	if g := r.grantTo(1, 4*time.Second); g.Num != 8 || g.Version != 1 {
		t.Fatalf("grant = %+v, want number 8 at version 1", g)
	}
}

// TestServerRenumbersPerClient: a release renumbers the releasing
// client's waiting requests for the released object — queued in the lock
// table, parked in the batch window, or on a forward list — and no other
// client's, and no other object's.
func TestServerRenumbersPerClient(t *testing.T) {
	for _, c := range []struct {
		name string
		mod  func(*config.Config)
	}{
		{"queued", func(c *config.Config) { c.UseForwardLists = false }},
		{"batched", func(c *config.Config) { c.UseForwardLists, c.BatchWindow = false, time.Second }},
		{"listed", func(c *config.Config) { c.UseForwardLists, c.CollectionWindow = true, time.Second }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 3, c.mod)
			defer r.env.Close()
			r.requestNum(3, 7, lockmgr.ModeExclusive, time.Minute, 1)
			r.requestNum(3, 8, lockmgr.ModeExclusive, time.Minute, 2)
			r.env.Run(2 * time.Second)
			r.requestNum(1, 7, lockmgr.ModeShared, time.Minute, 10)
			r.requestNum(1, 8, lockmgr.ModeShared, time.Minute, 11)
			r.requestNum(2, 7, lockmgr.ModeShared, time.Minute, 12)
			r.send(1, netsim.KindObjectReturn, &proto.ObjReturn{Client: 1, Obj: 7, Num: 13})
			r.env.Run(2*time.Second + 50*time.Millisecond)
			r.send(3, netsim.KindObjectReturn, &proto.ObjReturn{Client: 3, Obj: 7, Num: 3})
			r.send(3, netsim.KindObjectReturn, &proto.ObjReturn{Client: 3, Obj: 8, Num: 4})
			want := map[int]map[lockmgr.ObjectID]int64{1: {7: 13, 8: 11}, 2: {7: 12}}
			got := map[int]map[lockmgr.ObjectID]int64{1: {}, 2: {}}
			for id := range got {
				for _, m := range r.drain(id, 10*time.Second) {
					gm, ok := m.Payload.(*proto.GrantMsg)
					if !ok {
						continue
					}
					for _, g := range gm.Grants {
						got[id][g.Obj] = g.Num
						if g.Fwd == nil {
							continue
						}
						for _, e := range g.Fwd.Entries { // a shared run's later members
							got[int(e.Client)][g.Obj] = e.Num
						}
					}
				}
			}
			if !maps.Equal(got[1], want[1]) || !maps.Equal(got[2], want[2]) {
				t.Fatalf("grant numbers = %v, want %v", got, want)
			}
		})
	}
}
