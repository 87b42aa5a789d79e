package server

import (
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

// shardRig wires two peered shards with three scripted clients attached
// to both; the test plays the clients and reads their inboxes.
type shardRig struct {
	env    *sim.Env
	net    *netsim.Network
	topo   *shardmap.Map
	srv    [2]*Server
	to     [2][4]*sim.Mailbox[netsim.Message] // [shard][client]: connection queue
	inbox  [4]*sim.Mailbox[netsim.Message]    // [client]
	nextTx int64
}

func newShardRig(t *testing.T) *shardRig {
	t.Helper()
	cfg := config.Default(3, 0.05)
	cfg.UseForwardLists = false
	cfg.ServerOpCPU, cfg.DiskRead, cfg.DiskWrite = time.Millisecond, time.Millisecond, time.Millisecond
	cfg.Sharding = config.Topology{Servers: 2, ReplicateHot: 2, HeatWindow: 10 * time.Second}
	env := sim.NewEnv()
	r := &shardRig{
		env: env, topo: shardmap.New(cfg.Sharding),
		net: netsim.New(env, netsim.Config{Latency: 100 * time.Microsecond, BandwidthBps: 10e6}),
	}
	pool := &proto.Pool{}
	for k := range r.srv {
		r.srv[k] = NewShard(env, &cfg, r.net, pool, nil, k, r.topo)
	}
	for k, sv := range r.srv {
		in := sim.NewMailbox[netsim.Message](env)
		sv.SetPeerInbox(in)
		for _, other := range r.srv {
			other.AttachPeer(k, in)
		}
	}
	for id := 1; id <= 3; id++ {
		r.inbox[id] = sim.NewMailbox[netsim.Message](env)
		for k, sv := range r.srv {
			r.to[k][id] = sim.NewMailbox[netsim.Message](env)
			sv.Attach(netsim.SiteID(id), r.to[k][id], r.inbox[id])
		}
	}
	for _, sv := range r.srv {
		sv.Start()
	}
	return r
}

func (r *shardRig) send(from, shard int, kind netsim.Kind, payload any) {
	r.net.Send(netsim.Message{
		Kind: kind, From: netsim.SiteID(from), To: shardmap.ShardSite(shard),
		Size: netsim.ControlBytes, Payload: payload,
	}, r.to[shard][from])
}

func (r *shardRig) request(from, shard int, obj lockmgr.ObjectID, mode lockmgr.Mode) {
	r.nextTx++
	r.send(from, shard, netsim.KindObjectRequest, &proto.CommitRequest{
		Client: netsim.SiteID(from), Txn: txn.ID(r.nextTx), Deadline: time.Hour,
		Objs: []lockmgr.ObjectID{obj}, Modes: []lockmgr.Mode{mode},
	})
}

func (r *shardRig) giveBack(from, shard int, obj lockmgr.ObjectID) {
	r.send(from, shard, netsim.KindObjectReturn, &proto.ObjReturn{Client: netsim.SiteID(from), Obj: obj})
}

// got runs the clock to until and reports how many messages of kind
// client id received from shard since the last call.
func (r *shardRig) got(id int, until time.Duration, kind netsim.Kind, shard int) int {
	r.env.Run(until)
	n := 0
	for {
		m, ok := r.inbox[id].TryGet()
		if !ok {
			return n
		}
		if m.Kind == kind && m.From == shardmap.ShardSite(shard) {
			n++
		}
	}
}

// TestReplicaLifecycle walks one object's replica record through every
// transition: installed when reads run hot at home; recalled by a
// writer while nobody holds it (forced and drained in one step);
// reinstalled, whereupon the first install's heat-check timer fires and
// must find itself stale; kept over a warm window; a lame duck after a
// cold one; upgraded to a forced drain by a writer's recall; home again
// when the last holder lets go; and installed a third time.
func TestReplicaLifecycle(t *testing.T) {
	const obj, home, rep = lockmgr.ObjectID(4), 0, 1 // 4 mod 2 shards: homed at shard 0
	r := newShardRig(t)
	defer r.env.Close()
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	// hot makes obj run hot at home: two shared grants in one window.
	hot := func() {
		r.request(2, home, obj, lockmgr.ModeShared)
		r.request(3, home, obj, lockmgr.ModeShared)
	}
	// write has client 1 take obj exclusively at home; the two readers
	// answer their recalls, and once granted the writer gives it back.
	write := func(at time.Duration) {
		r.request(1, home, obj, lockmgr.ModeExclusive)
		for _, reader := range []int{2, 3} {
			if n := r.got(reader, at+sec(0.2), netsim.KindRecall, home); n != 1 {
				t.Fatalf("t=%v: reader %d got %d recalls from home, want 1", at, reader, n)
			}
			r.giveBack(reader, home, obj)
		}
	}
	writerDone := func(at time.Duration) {
		if n := r.got(1, at, netsim.KindObjectShip, home); n != 1 {
			t.Fatalf("t=%v: writer got %d ships, want 1 (the replica's drain must release it)", at, n)
		}
		r.giveBack(1, home, obj)
	}

	for _, step := range []struct {
		name       string
		at         float64 // the step's action runs here, its checks half a second later
		do         func(at time.Duration)
		state      replicaState
		gen        int64 // installs so far
		out        bool  // home shard: replica provisioned elsewhere
		registered bool  // topology: reads route to the replica
		shed       int64
	}{
		{name: "install", at: 0, do: func(time.Duration) { hot() },
			state: repServing, gen: 1, out: true, registered: true},
		{name: "writer recalls an unheld replica: forced, drained and home at once", at: 1, do: write,
			state: repNone, gen: 1, shed: 1},
		{name: "reinstall", at: 3, do: func(at time.Duration) { writerDone(at); r.env.Run(at + sec(0.1)); hot() },
			state: repServing, gen: 2, out: true, registered: true, shed: 1},
		{name: "first install's heat check fires stale", at: 10.5, do: func(time.Duration) {},
			state: repServing, gen: 2, out: true, registered: true, shed: 1},
		{name: "a read at the replica keeps its window warm", at: 12, do: func(time.Duration) { r.request(1, rep, obj, lockmgr.ModeShared) },
			state: repServing, gen: 2, out: true, registered: true, shed: 1},
		{name: "warm window re-arms", at: 13.5, do: func(time.Duration) {},
			state: repServing, gen: 2, out: true, registered: true, shed: 1},
		{name: "cold window: lame duck behind its one holder", at: 23.5, do: func(at time.Duration) {
			if n := r.got(1, at, netsim.KindRecall, rep); n != 0 {
				t.Fatalf("a cold shed recalled its holder %d times", n)
			}
		}, state: repDraining, gen: 2, out: true, shed: 2},
		{name: "writer's recall upgrades the drain to forced", at: 25, do: func(at time.Duration) {
			r.request(2, home, obj, lockmgr.ModeExclusive)
			if n := r.got(1, at+sec(0.2), netsim.KindRecall, rep); n != 1 {
				t.Fatalf("holder got %d recalls from the replica shard, want 1", n)
			}
		}, state: repForced, gen: 2, out: true, shed: 2},
		{name: "last holder releases: object home", at: 26, do: func(time.Duration) { r.giveBack(1, rep, obj) },
			state: repNone, gen: 2, shed: 2},
		{name: "third install", at: 27, do: func(at time.Duration) {
			// Client 3 still holds its shared copy from the reinstall.
			if n := r.got(3, at, netsim.KindRecall, home); n != 1 {
				t.Fatalf("reader 3 got %d recalls from home, want 1", n)
			}
			r.giveBack(3, home, obj)
			writer2Ships := r.got(2, at+sec(0.2), netsim.KindObjectShip, home)
			if writer2Ships != 2 { // its read at the reinstall, and now the write
				t.Fatalf("second writer got %d ships, want 2", writer2Ships)
			}
			r.giveBack(2, home, obj)
			r.env.Run(at + sec(0.3))
			hot()
		}, state: repServing, gen: 3, out: true, registered: true, shed: 2},
	} {
		at := sec(step.at)
		r.env.Run(at)
		step.do(at)
		r.env.Run(at + sec(0.5))
		o := r.srv[rep].at(obj)
		if installs := r.srv[home].ReplicasInstalled; o.replica != step.state || installs != step.gen {
			t.Fatalf("%s: replica state %d after %d installs, want %d after %d", step.name, o.replica, installs, step.state, step.gen)
		}
		if out := r.srv[home].at(obj).replicaOut; out != step.out {
			t.Fatalf("%s: home shard replicaOut = %v, want %v", step.name, out, step.out)
		}
		if _, registered := r.topo.Replica(obj); registered != step.registered {
			t.Fatalf("%s: registered in the topology = %v, want %v", step.name, registered, step.registered)
		}
		if r.srv[rep].ReplicasShed != step.shed {
			t.Fatalf("%s: %d replicas shed, want %d", step.name, r.srv[rep].ReplicasShed, step.shed)
		}
	}
	if n := r.srv[home].ReplicasInstalled; n != 3 {
		t.Errorf("%d installs, want 3", n)
	}
}
