package server

import (
	"testing"
	"time"

	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/txn"
)

// listScript plays scripted clients against the rig's shard with pooled
// payloads: request sends a firm request, giveBack a return, and take
// receives one message as a client's dispatch loop does — check its
// kind, release its record — and hands back its first grant.
type listScript struct {
	r       *rig
	id      txn.ID
	version int64
}

func (p *listScript) request(from int, obj lockmgr.ObjectID, mode lockmgr.Mode) {
	s := p.r.srv
	p.id++
	q := s.payloads.ObjRequest.New()
	q.Op, q.Client, q.Txn, q.Deadline = proto.OpCommit, netsim.SiteID(from), p.id, p.r.env.Now()+time.Minute
	q.Objs, q.Modes = append(q.Objs, obj), append(q.Modes, mode)
	q.Nums = append(q.Nums, 1)
	p.r.send(from, netsim.KindObjectRequest, q)
}

func (p *listScript) giveBack(from int, obj lockmgr.ObjectID, ret proto.ObjReturn) {
	rec := p.r.srv.payloads.ObjReturn.New()
	*rec = ret
	rec.Client, rec.Obj = netsim.SiteID(from), obj
	p.r.send(from, netsim.KindObjectReturn, rec)
}

func (p *listScript) take(at int, kind netsim.Kind) proto.ObjGrant {
	p.r.env.Run(p.r.env.Now() + time.Second)
	msg, ok := p.r.inbox[at].TryGet()
	if !ok || msg.Kind != kind {
		panic("scripted client did not receive its " + kind.String())
	}
	var g proto.ObjGrant
	if gm, isGrant := msg.Payload.(*proto.GrantMsg); isGrant {
		g = gm.Grants[0]
	}
	p.r.srv.payloads.Release(msg.Payload)
	return g
}

// hops walks a travelling list down its entries as the clients named on
// it would, and reports the last of them.
func (p *listScript) hops(l *forward.List) int {
	last := 0
	for e, ok := l.PopLive(p.r.env.Now()); ok; e, ok = l.PopLive(p.r.env.Now()) {
		last = int(e.Client)
	}
	return last
}

// TestForwardListRoundZeroAlloc pins a steady-state forward-list round
// at zero allocations, messages included: client 1 holds the object,
// clients 2 and 3 join its open list, the window seals it and client 1's
// return dispatches it — an exclusive chain once, a parallel read run
// the next time — the list hops down its entries, and the final return
// lands it. Every list is the stock's, and goes back where its life
// ends: the sealed list at dispatch, the shard's in-flight copy and the
// travelling copy at the final return.
func TestForwardListRoundZeroAlloc(t *testing.T) {
	r := newRig(t, 3, nil)
	defer r.env.Close()
	p := &listScript{r: r}
	const obj = 45
	run := func(mode lockmgr.Mode) {
		p.request(1, obj, lockmgr.ModeExclusive)
		p.take(1, netsim.KindObjectShip)
		p.request(2, obj, mode) // both join the list the window opens
		p.request(3, obj, mode)
		p.take(1, netsim.KindRecall)
		p.version++
		p.giveBack(1, obj, proto.ObjReturn{HasData: true, Version: p.version})
		g := p.take(2, netsim.KindObjectShip)
		if g.Fwd == nil || g.Fwd.Len() != 1 {
			panic("dispatch shipped no list naming the second client")
		}
		last := p.hops(g.Fwd)
		if mode == lockmgr.ModeShared {
			p.giveBack(last, obj, proto.ObjReturn{RunComplete: true, Fwd: g.Fwd})
			p.r.env.Run(p.r.env.Now() + time.Second)
			p.giveBack(2, obj, proto.ObjReturn{})
			p.giveBack(3, obj, proto.ObjReturn{})
		} else {
			p.giveBack(last, obj, proto.ObjReturn{HasData: true, Version: p.version, Migration: true, Fwd: g.Fwd})
		}
		p.r.env.Run(p.r.env.Now() + time.Second)
	}
	round := func() {
		run(lockmgr.ModeExclusive)
		run(lockmgr.ModeShared)
	}
	round() // warm the pools and the stock
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a forward-list round with its messages allocates %v per run, want 0", n)
	}
	if s := r.srv; s.MigrationsStarted < 100 || s.Migrating(obj) || s.find(obj).open != nil || s.find(obj).sealed != nil {
		t.Fatalf("rounds did not run or left a list: %d migrations, in flight %v", s.MigrationsStarted, s.Migrating(obj))
	}
	if err := r.srv.AuditLocks(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicatedReturnNeverRecyclesItsList: a final return the fault
// layer delivered twice (netsim.Message.Shared) is served twice, and its
// list goes back to the stock neither time — the other copy may still be
// read — so the stock never hands that list out, and never hands one
// list out twice.
func TestDuplicatedReturnNeverRecyclesItsList(t *testing.T) {
	r := newRig(t, 3, nil)
	defer r.env.Close()
	s := r.srv
	p := &listScript{r: r}
	const obj = 46
	p.request(1, obj, lockmgr.ModeExclusive)
	p.take(1, netsim.KindObjectShip)
	p.request(2, obj, lockmgr.ModeExclusive)
	p.request(3, obj, lockmgr.ModeExclusive)
	p.take(1, netsim.KindRecall)
	p.giveBack(1, obj, proto.ObjReturn{HasData: true, Version: 1})
	g := p.take(2, netsim.KindObjectShip)
	last := p.hops(g.Fwd)

	ret := s.payloads.ObjReturn.New()
	*ret = proto.ObjReturn{Client: netsim.SiteID(last), Obj: obj, Version: 2, Migration: true, Fwd: g.Fwd}
	for range 2 {
		r.net.Send(netsim.Message{
			Kind: netsim.KindObjectReturn, From: netsim.SiteID(last), To: netsim.ServerSite,
			Size: netsim.ControlBytes, Payload: ret, Shared: true,
		}, r.to[last])
	}
	r.env.Run(r.env.Now() + time.Second)
	if s.Migrating(obj) || s.locks.HolderMode(obj, MigrationOwner) != 0 {
		t.Fatal("the final return did not land the migration")
	}
	a, b := s.payloads.Lists.New(1), s.payloads.Lists.New(2)
	if a == b || a == g.Fwd || b == g.Fwd {
		t.Fatalf("stock handed out %p and %p; the duplicated return's list is %p", a, b, g.Fwd)
	}
}
