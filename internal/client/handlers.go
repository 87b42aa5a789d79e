package client

import (
	"fmt"

	"siteselect/internal/cache"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
)

// onGrant handles an arriving object, whether shipped by the server or
// forwarded by a peer along a forward list.
func (c *Client) onGrant(g proto.ObjGrant) {
	src := c.grantSource(g.Obj)
	if !c.open(g.Obj, src, g.Num) {
		// The grant answers no open request: it was sent before the
		// server processed a release or downgrade of ours, so the
		// registration it delivers no longer exists and the copy must
		// not be cached or served.
		// A read run keeps moving for the others. Dropping a migration
		// hop here (possible only under fault injection) would strand
		// every downstream entry of the chain: pass the object on without
		// caching it.
		if g.Fwd != nil && (g.Fwd.ReadRun || c.faulty) {
			c.hopOn(g)
		}
		return
	}
	install := true
	if c.faulty && g.Fwd == nil {
		if e := c.objects.Peek(g.Obj); e != nil {
			if e.Version > g.Version {
				// Provably stale duplicate: versions only move forward,
				// so a grant older than the cached copy predates a local
				// commit (e.g. a dupFirm re-ship overtaken by a
				// downgrade). Installing it would clobber the newer
				// version; its mode is equally outdated.
				install = false
				g.Mode = e.Mode()
			} else if e.Version == g.Version && modeSufficient(e.Mode(), g.Mode) {
				// Duplicate grant from a retried request: the cached
				// copy is already as fresh and as strong. Still run the
				// waiter scan below — the retry that produced this
				// duplicate may itself be the one waiting.
				install = false
				g.Mode = e.Mode()
			}
		}
	}
	if install {
		evicted := c.objects.Insert(g.Obj, g.Mode, false, g.Version)
		c.returnEvicted(evicted)
	}
	if g.Fwd != nil && !g.Fwd.ReadRun {
		// Migration hop: hold the object pinned until this site's turn
		// is over, then pass it on.
		c.recFor(g.Obj).fwd = g.Fwd
		c.objects.Pin(c.objects.Peek(g.Obj))
	}

	satisfied := c.wakeWaiters(g.Obj, g.Mode, c.curTransit)
	if g.Fwd == nil {
		// A recall parked against this in-flight grant can be answered
		// as soon as no local transaction is using the copy: immediately
		// if the grant satisfied nobody (its transaction is dead),
		// otherwise when that transaction's pins drop (afterRelease).
		if satisfied == 0 && c.phase(g.Obj)&phParkedFree != 0 {
			c.answerParked(g.Obj)
		}
		return
	}
	if g.Fwd.ReadRun {
		// Parallel read run: this site keeps its copy and the object
		// hops onward immediately — downstream readers don't wait for
		// our transaction.
		c.hopOn(g)
		return
	}
	// A migration hop is claimed by whatever local transaction it
	// satisfies; the hop continues when that transaction's pins drop
	// (afterRelease). With no claimant (the destined transaction is
	// dead), keep the migration moving now.
	if satisfied == 0 {
		c.forwardMigration(g.Obj)
	}
}

// hopOn passes on an object this site will not keep working on: to the
// next live entry of its forward list that names another site (this
// site's own entries were served by the arriving copy, or are as stale
// as it), or, the list spent, home. A parallel-read run ends with its
// acknowledgement — the +1 of the 2n+1 message count — which lets
// writers at the object again. An exclusive chain comes here only when
// this site must not accept the hop (its number shows the registration
// was given up while the hop was in flight, which fault injection's
// extra latency makes possible) and ends with the object's data.
func (c *Client) hopOn(g proto.ObjGrant) {
	l, now := g.Fwd, c.env.Now()
	next, ok := l.PopLive(now)
	for ok && next.Client == c.id {
		next, ok = l.PopLive(now)
	}
	if ok {
		c.sendHop(next, g.Obj, g.Version, l)
	} else {
		c.endRun(g.Obj, g.Version, l)
	}
}

// endRun ends forward list l, spent, at obj's home shard: a parallel
// read run with its acknowledgement, an exclusive chain with the
// object's data at version and the sites that kept shared copies.
func (c *Client) endRun(obj lockmgr.ObjectID, version int64, l *forward.List) {
	home := c.homeSite(obj)
	ret := proto.ObjReturn{
		Client: c.id, Obj: obj, HasData: !l.ReadRun, RunComplete: l.ReadRun,
		Load: c.loadReport(), Fwd: l,
	}
	if !l.ReadRun {
		ret.Version, ret.Migration = version, true
	}
	c.sendReturn(home, dataBytes(ret.HasData), ret)
}

// onLocations takes a shard's answer naming where objects are: to a
// probe, or — located, a load reply — to a location query. A location
// answer that outlived its query is dropped; a probe's answer that
// arrives during a location query wakes the waiter but is not kept,
// since it is no location answer.
func (c *Client) onLocations(r proto.Locations, located bool) {
	pt := c.findPending(r.Txn)
	if pt == nil || located && pt.kind != skLocate {
		return
	}
	pt.netAccum += c.curTransit
	if !located && pt.kind == skLocate {
		pt.sig.Broadcast()
		return
	}
	pt.replies = c.keepReply(pt.replies, c.curFrom, &r)
	if !located || len(pt.replies) >= pt.want {
		pt.answered = true
		pt.sig.Broadcast()
	}
}

func (c *Client) onDeny(d proto.DenyReply) {
	pt := c.findPending(d.Txn)
	if pt == nil {
		return
	}
	pt.denied = d.Reason
	pt.netAccum += c.curTransit
	c.tr.Point(d.Txn, c.id, trace.EvLockDenied, 0, int64(d.Reason), 0, c.env.Now())
	pt.sig.Broadcast()
}

// onRecall answers a server callback. Recalls for objects pinned by a
// running transaction are parked until it finishes (the paper's
// clients finish local work before giving up a lock). A recall whose
// HolderMode does not match the cached state refers to a grant still on
// the wire — answering it now would renounce the lock that grant
// carries, losing an update — so it is parked until the transaction
// waiting for that grant finishes; with no copy at all, only if a
// transaction waits for one. Everything else is answered immediately.
func (c *Client) onRecall(r proto.Recall) {
	from := c.curFrom
	e := c.objects.Peek(r.Obj)
	switch why := parkedOn(e, r); {
	case why == phParkedClear:
		c.answerRecall(e, r, from)
	case why == phParkedNoCopy && (r.HolderMode == 0 || c.phase(r.Obj)&phRequested == 0):
		// Silently evicted earlier: release the lock.
		c.returnNotCached(r.Obj, from)
	default:
		c.m.RecallsDeferred++
		c.parkRecall(r.Obj, r, from)
	}
}

// returnNotCached releases obj's registration at the shard at from
// with no copy to return. The release's number revokes any stray grant
// already on the wire.
func (c *Client) returnNotCached(obj lockmgr.ObjectID, from netsim.SiteID) {
	c.sendReturn(from, netsim.ControlBytes, proto.ObjReturn{
		Client: c.id, Obj: obj, Num: c.release(obj, from),
		Load: c.loadReport(),
	})
}

// answerRecall answers a callback issued by the shard at from: with a
// downgrade when it asks for one, else with the copy. A downgrade gives
// the exclusive registration up as a release does, so it revokes the
// grants already on the wire the same way.
func (c *Client) answerRecall(e *cache.Entry, r proto.Recall, from netsim.SiteID) {
	if r.DowngradeToShared && e.Mode() == lockmgr.ModeExclusive && c.cfg.UseDowngrade {
		c.sendReturn(from, dataBytes(e.Dirty()), proto.ObjReturn{
			Client: c.id, Obj: e.Obj, HasData: e.Dirty(), Version: e.Version,
			Downgraded: true, Num: c.release(e.Obj, from), Load: c.loadReport(),
		})
		c.objects.Downgrade(e)
		return
	}
	c.giveUp(c.objects.Remove(e.Obj), from)
}

// giveUp returns e, a copy already out of the cache, to the shard at to
// and recycles it. Any grant already on the wire refers to the
// registration this return renounces; the return's number revokes it.
func (c *Client) giveUp(e *cache.Entry, to netsim.SiteID) {
	c.sendReturn(to, dataBytes(e.Dirty()), proto.ObjReturn{
		Client: c.id, Obj: e.Obj, HasData: e.Dirty(), Version: e.Version,
		Num: c.release(e.Obj, to), Load: c.loadReport(),
	})
	c.objects.Recycle(e)
}

// dataBytes is the wire size of a return: the object's when it carries
// data, a control message's when it does not.
func dataBytes(hasData bool) int {
	if hasData {
		return netsim.ObjectBytes
	}
	return netsim.ControlBytes
}

// onTxnShip executes a transaction or subtask shipped to this site.
func (c *Client) onTxnShip(s proto.TxnShip) {
	if s.Sub != nil {
		c.spawnTxn(s.T, s.Sub, enShipSub, nil)
		return
	}
	c.spawnTxn(s.T, nil, enShipWhole, nil)
}

// onTxnResult hands a remote subtask's result to the parent machine
// waiting in fanout. A whole transaction's result retires it: the origin
// shares the *txn.Transaction its target wrote the outcome into
// (shipTxn), and the reliable channel delivers the result once.
func (c *Client) onTxnResult(r proto.TxnResult) {
	if !r.IsSub {
		c.retire(r.T)
		return
	}
	for _, m := range c.fanouts {
		if m.t == r.T {
			m.results[r.SubIndex].report(r.Committed)
			return
		}
	}
}

// returnEvicted handles cache fallout: dirty or exclusively locked
// evictions must go back to the server; clean shared copies are dropped
// silently (the lock release is lazy — a later recall gets a NotCached
// answer).
func (c *Client) returnEvicted(evicted []*cache.Entry) {
	for _, e := range evicted {
		if c.migrating(e.Obj) {
			panic(fmt.Sprintf("client %d: migrating object %d evicted", c.id, e.Obj))
		}
		d, hadRecall := c.takeRecall(e.Obj)
		if !hadRecall && !e.Dirty() && e.Mode() == lockmgr.ModeShared {
			c.objects.Recycle(e)
			continue // lazy release: a later recall gets NotCached
		}
		// A recall names the shard holding our registration; without one
		// the copy is dirty or exclusive, which only the home shard
		// grants.
		dest := c.homeSite(e.Obj)
		if hadRecall {
			dest = d.from
		}
		c.giveUp(e, dest)
	}
}

// afterRelease runs when a transaction's pins drop: forward any
// migrating objects whose turn is over, and answer recalls parked
// while the objects were pinned.
func (c *Client) afterRelease(ops []txn.Op) {
	for _, op := range ops {
		p := c.phase(op.Obj)
		switch {
		case p&phMigrating != 0:
			if e := c.objects.Peek(op.Obj); e != nil && e.Pins() == 1 {
				// Only the migration pin remains: this site's turn is
				// over, pass the object on.
				c.forwardMigration(op.Obj)
			}
		case p&phParkedNoCopy != 0:
			// The grant the recall referred to never materialized (or
			// the copy is gone): release the lock outright.
			d, _ := c.takeRecall(op.Obj)
			c.returnNotCached(op.Obj, d.from)
		case p&phParkedFree != 0:
			c.answerParked(op.Obj)
		}
	}
}

// forwardMigration advances a migrating object: hand it to the next
// live forward-list entry. Consecutive entries for this same client are
// served in place (the object never leaves); otherwise the object hops
// to the next client, or returns to the server after the last entry.
func (c *Client) forwardMigration(obj lockmgr.ObjectID) {
	r := c.rec(obj)
	if r == nil || r.fwd == nil {
		return
	}
	l := r.fwd
	e := c.objects.Peek(obj)
	if e == nil {
		panic(fmt.Sprintf("client %d: migrating object %d not cached", c.id, obj))
	}
	if e.Pins() > 1 {
		// Beyond the migration pin, a running local transaction still
		// holds the copy (reachable under fault injection, where a hop
		// can arrive while a transaction satisfied by an earlier grant
		// is still executing). Its afterRelease resumes the hop once
		// the last such pin drops.
		return
	}
	now := c.env.Now()
	next, ok := l.PopLive(now)
	for ok && next.Client == c.id {
		// Our own next turn: the migration holds the object exclusively
		// at the global level, so the local mode can be raised to
		// whatever this entry needs.
		if next.Mode == lockmgr.ModeExclusive {
			c.objects.SetMode(e, lockmgr.ModeExclusive)
		}
		if c.wakeWaiters(obj, e.Mode(), 0) > 0 { // no message brought it: no transit
			return // that transaction's afterRelease resumes the hop
		}
		next, ok = l.PopLive(now) // the entry's transaction is gone; try the next one
	}

	d, hadRecall := c.takeRecall(obj)
	r.fwd = nil
	c.settle(r)
	c.objects.Unpin(e)
	version := e.Version

	// Keep a clean shared copy when nothing downstream writes (the
	// downgrade idea extended to migration chains); a pending recall or a
	// downstream EL forbids retention.
	retain := c.cfg.UseDowngrade && !hadRecall &&
		(!ok || next.Mode == lockmgr.ModeShared && !l.HasExclusive())
	if retain {
		c.objects.Downgrade(e)
		l.Retain(c.id)
	} else {
		c.objects.Recycle(c.objects.Remove(obj))
	}
	if ok {
		c.sendHop(next, obj, version, l)
	} else {
		c.endRun(obj, version, l)
	}
	if hadRecall {
		// The recall that arrived mid-migration is answered with a
		// release: the object has moved on.
		c.returnNotCached(obj, d.from)
	}
}
