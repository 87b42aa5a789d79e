package rtdbs

import (
	"testing"
	"time"

	"siteselect/internal/client"
	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/server"
	"siteselect/internal/shardmap"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// pingPong is a scripted transaction stream: every period, starting at
// next, the client at origin updates the one contested object. Its
// transactions come from the system's maker, as a generator's do: a
// chunk of the maker's slabs serves a hundred and more of them, so the
// stream costs a small fraction of an allocation per transaction.
type pingPong struct {
	maker  *txn.Maker
	origin netsim.SiteID
	obj    lockmgr.ObjectID
	next   time.Duration
	period time.Duration
}

func (p *pingPong) NextArrival() time.Duration { return p.next }

func (p *pingPong) Maker() *txn.Maker { return p.maker }

func (p *pingPong) Next() *txn.Transaction {
	t := p.maker.New(1)
	t.Ops[0] = txn.Op{Obj: p.obj, Write: true}
	t.Origin, t.ExecSite, t.Arrival = p.origin, p.origin, p.next
	t.Deadline, t.Length = p.next+8*time.Second, time.Second
	t.Status = txn.StatusPending
	p.next += p.period
	return t
}

// TestMessageRoundTripZeroAlloc pins the whole life of the four messages
// a contended update costs — request, recall, return, ship — at zero
// allocations, payloads included: two clients of one server take turns
// updating the same object, so every transaction's request queues behind
// the other client's exclusive lock, the server calls the object back,
// the holder returns it with data (a page install), and the grant ships.
// Each payload is a record from the rig's pool, filled by its sender and
// released by the receiving dispatch loop; lock requests, grant lists,
// machines and cache entries are recycled the same way. (The
// transactions are carved from the maker's chunks, well under one
// allocation a round, which AllocsPerRun's whole count does not show.)
func TestMessageRoundTripZeroAlloc(t *testing.T) {
	const contested = lockmgr.ObjectID(7)
	env := sim.NewEnv()
	defer env.Close()
	cfg := config.Default(2, 1)
	cfg.UseH1, cfg.UseH2, cfg.UseDecomposition, cfg.UseForwardLists = false, false, false, false
	cfg.Warmup, cfg.Duration = 0, 1000*time.Hour
	net := netsim.New(env, netsim.Config{Latency: cfg.NetLatency, BandwidthBps: cfg.NetBandwidthBps})
	var stock client.Stock
	var m metrics.Collector
	topo := shardmap.New(cfg.Sharding)
	srv := server.NewShard(env, &cfg, net, &stock.Payloads, nil, 0, topo)

	maker := new(txn.Maker)
	var clients [2]*client.Client
	for i := range clients {
		id := netsim.SiteID(i + 1)
		// The client's inbox, then its connection queue at the server.
		boxes := make([]sim.Mailbox[netsim.Message], 2)
		srv.Attach(id, &boxes[1], &boxes[0])
		src := &pingPong{
			maker: maker, origin: id, obj: contested,
			next: time.Duration(i) * 10 * time.Second, period: 20 * time.Second,
		}
		clients[i] = new(client.Client)
		clients[i].Init(env, &cfg, id, net, &stock, &m, boxes, topo, src)
	}
	for _, cl := range clients {
		cl.Start()
	}

	round := func() { env.Run(env.Now() + 20*time.Second) } // one update by each client
	for i := 0; i < 4; i++ {
		round() // free lists, rings and the cache reach their steady sizes
	}
	before := net.TotalMessages()
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("a request → recall → return → ship round trip allocates %v per round, want 0", n)
	}
	rounds := int64(501) // AllocsPerRun warms up with one extra call
	if got := net.TotalMessages() - before; got != 8*rounds {
		t.Fatalf("%d messages in %d rounds, want 8 a round (two full round trips)", got, rounds)
	}
	for kind, want := range map[netsim.Kind]int64{
		netsim.KindObjectRequest: 2, netsim.KindRecall: 2, netsim.KindObjectReturn: 2, netsim.KindObjectShip: 2,
	} {
		if got := net.Stats(kind).Count; got < want*rounds {
			t.Errorf("%v: %d messages, want at least %d", kind, got, want*rounds)
		}
	}
	if m.RecallsDeferred != 0 {
		t.Errorf("%d recalls deferred: the rig's turns overlap", m.RecallsDeferred)
	}
	if v := srv.Version(contested); v < 2*rounds-2 {
		t.Errorf("server holds version %d of the contested object after %d updates", v, 2*rounds)
	}
	if err := srv.AuditLocks(); err != nil {
		t.Error(err)
	}
}
