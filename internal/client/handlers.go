package client

import (
	"fmt"

	"siteselect/internal/cache"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/trace"
	"siteselect/internal/txn"
)

// onGrant handles an arriving object, whether shipped by the server or
// forwarded by a peer along a forward list.
func (c *Client) onGrant(g proto.ObjGrant) {
	if g.Epoch != c.epochOf(g.Obj, c.grantSource(g.Obj)) {
		// The grant was sent before the server processed one of our
		// releases: the registration it delivers no longer exists and
		// the copy must not be cached or served.
		if g.Fwd != nil && g.Fwd.ReadRun {
			c.hopReadRun(g) // keep the run moving for the others
		} else if c.faulty && g.Fwd != nil {
			// Dropping a migration hop here would strand every downstream
			// entry of the chain: pass the object on without caching it.
			c.hopStaleMigration(g)
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
				g.Mode = e.Mode
			} else if e.Version == g.Version && modeSufficient(e.Mode, g.Mode) {
				// Duplicate grant from a retried request: the cached
				// copy is already as fresh and as strong. Still run the
				// waiter scan below — the retry that produced this
				// duplicate may itself be the one waiting.
				install = false
				g.Mode = e.Mode
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
		c.migrations.put(g.Obj, g.Fwd)
		c.objects.Pin(c.objects.Peek(g.Obj))
	}

	satisfied := c.wakeWaiters(g.Obj, g.Mode, c.curTransit)
	if g.Fwd == nil {
		// A recall deferred against this in-flight grant can be
		// answered as soon as no local transaction is using the copy:
		// immediately if the grant satisfied nobody (its transaction is
		// dead), otherwise when that transaction's pins drop
		// (afterRelease).
		if satisfied == 0 {
			if d, ok := c.takeDeferredIfUnpinned(g.Obj); ok {
				c.answerRecall(c.objects.Peek(g.Obj), d.r, d.from)
			}
		}
		return
	}
	if g.Fwd.ReadRun {
		// Parallel read run: this site keeps its copy and the object
		// hops onward immediately — downstream readers don't wait for
		// our transaction.
		c.hopReadRun(g)
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

// takeDeferredIfUnpinned removes and returns obj's deferred recall only
// when a cached, unpinned copy exists to answer it with.
func (c *Client) takeDeferredIfUnpinned(obj lockmgr.ObjectID) (deferredRecall, bool) {
	if e := c.objects.Peek(obj); e != nil && !e.Pinned() {
		return c.deferred.take(obj)
	}
	return deferredRecall{}, false
}

// hopStaleMigration keeps an exclusive migration chain alive when this
// site must not accept the hop (its epoch shows the registration was
// released while the hop was in flight — possible only under fault
// injection, where extra latency can reorder a hop past a recall
// answer). The object is passed to the next live entry without caching
// it here, or returned to the server when the chain is spent.
func (c *Client) hopStaleMigration(g proto.ObjGrant) {
	l := g.Fwd
	now := c.env.Now()
	for {
		next, ok, _ := l.PopLive(now)
		if !ok {
			home := c.homeSite(g.Obj)
			c.sendReturn(home, netsim.ObjectBytes, proto.ObjReturn{
				Client: c.id, Obj: g.Obj, HasData: true, Version: g.Version,
				Migration: true, RetainedSL: l.Retained,
				Epoch: c.epochOf(g.Obj, home), Load: c.loadReport(),
			})
			return
		}
		if next.Client == c.id {
			continue // same stale registration; skip our own entries too
		}
		c.ForwardHops++
		c.tr.Point(next.Txn, c.id, trace.EvMigrationHop, g.Obj, int64(next.Client), 0, now)
		c.sendHop(next.Client, proto.ObjGrant{
			Obj: g.Obj, Mode: next.Mode, Version: g.Version, Txn: next.Txn,
			Epoch: next.Epoch, Fwd: l,
		})
		return
	}
}

// hopReadRun forwards a parallel-read object to the next live entry of
// its run; every run member already holds a registered SL and read-only
// data stays current, so only the final acknowledgement travels back.
func (c *Client) hopReadRun(g proto.ObjGrant) {
	for {
		next, ok, _ := g.Fwd.PopLive(c.env.Now())
		if !ok {
			// Last member: acknowledge the run so the server can let
			// writers at the object again (the forward list's final
			// return — the +1 of the 2n+1 message count).
			home := c.homeSite(g.Obj)
			c.sendReturn(home, netsim.ControlBytes, proto.ObjReturn{
				Client: c.id, Obj: g.Obj, RunComplete: true,
				Epoch: c.epochOf(g.Obj, home), Load: c.loadReport(),
			})
			return
		}
		if next.Client == c.id {
			// Consecutive entries for this same site: its waiters were
			// already satisfied by the arriving copy.
			continue
		}
		c.ForwardHops++
		c.tr.Point(next.Txn, c.id, trace.EvMigrationHop, g.Obj, int64(next.Client), 0, c.env.Now())
		c.sendHop(next.Client, proto.ObjGrant{
			Obj: g.Obj, Mode: next.Mode, Version: g.Version, Txn: next.Txn,
			Epoch: next.Epoch, Fwd: g.Fwd,
		})
		return
	}
}

func (c *Client) onConflictReply(r proto.ConflictReply) {
	pt := c.findPending(r.Txn)
	if pt == nil {
		return
	}
	pt.confFrom = c.keepReply(pt.confFrom, c.curFrom, r.Conflicts, r.Loads, r.DataCounts)
	pt.gotConflict = true
	pt.netAccum += c.curTransit
	pt.sig.Broadcast()
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

func (c *Client) onLoadReply(r proto.LoadReply) {
	pt := c.findPending(r.Txn)
	if pt == nil || !pt.wantLoad {
		return
	}
	pt.loadFrom = c.keepReply(pt.loadFrom, c.curFrom, r.Locations, r.Loads, nil)
	pt.netAccum += c.curTransit
	if len(pt.loadFrom) >= pt.loadWant {
		pt.hasLoad = true
		pt.sig.Broadcast()
	}
}

// onRecall answers a server callback. Recalls for objects pinned by a
// running transaction are deferred until it finishes (the paper's
// clients finish local work before giving up a lock). A recall whose
// HolderMode does not match the cached state refers to a grant still on
// the wire — answering it now would renounce the lock that grant
// carries, losing an update — so it is deferred until the transaction
// waiting for that grant finishes. Everything else is answered
// immediately.
func (c *Client) onRecall(r proto.Recall) {
	from := c.curFrom
	e := c.objects.Peek(r.Obj)
	wanted := c.hasWaiter(r.Obj)
	if e == nil {
		if wanted && r.HolderMode != 0 {
			// The server believes we hold a lock we have not seen yet:
			// its grant is in flight. Defer until our transaction is
			// done with it.
			c.m.RecallsDeferred++
			c.deferred.put(r.Obj, deferredRecall{r: r, from: from})
			return
		}
		// Silently evicted earlier: release the lock. Bumping the epoch
		// revokes any stray grant already on the wire.
		epoch := c.bumpEpoch(r.Obj, from)
		c.sendReturn(from, netsim.ControlBytes, proto.ObjReturn{
			Client: c.id, Obj: r.Obj, NotCached: true, Epoch: epoch,
			Load: c.loadReport(),
		})
		return
	}
	if e.Pinned() || (r.HolderMode != 0 && r.HolderMode != e.Mode) {
		c.m.RecallsDeferred++
		c.deferred.put(r.Obj, deferredRecall{r: r, from: from})
		return
	}
	c.answerRecall(e, r, from)
}

// answerRecall answers a callback issued by the shard at from.
func (c *Client) answerRecall(e *cache.Entry, r proto.Recall, from netsim.SiteID) {
	if r.DowngradeToShared && e.Mode == lockmgr.ModeExclusive && c.cfg.UseDowngrade {
		hadData := e.Dirty
		e.Mode = lockmgr.ModeShared
		e.Dirty = false
		size := netsim.ControlBytes
		if hadData {
			size = netsim.ObjectBytes
		}
		c.sendReturn(from, size, proto.ObjReturn{
			Client: c.id, Obj: e.Obj, HasData: hadData, Version: e.Version,
			Downgraded: true, Epoch: c.epochOf(e.Obj, from), Load: c.loadReport(),
		})
		return
	}
	c.objects.Remove(e.Obj)
	// Any grant already on the wire refers to the registration this
	// answer renounces; the epoch bump revokes it.
	epoch := c.bumpEpoch(e.Obj, from)
	size := netsim.ControlBytes
	if e.Dirty {
		size = netsim.ObjectBytes
	}
	c.sendReturn(from, size, proto.ObjReturn{
		Client: c.id, Obj: e.Obj, HasData: e.Dirty, Version: e.Version,
		Epoch: epoch, Load: c.loadReport(),
	})
	c.objects.Recycle(e)
}

// onTxnShip executes a transaction or subtask shipped to this site.
func (c *Client) onTxnShip(s proto.TxnShip) {
	c.ShippedIn++
	if s.Sub != nil {
		c.spawnTxn(s.T, s.Sub, enShipSub, nil)
		return
	}
	c.spawnTxn(s.T, nil, enShipWhole, nil)
}

func (c *Client) onTxnResult(r proto.TxnResult) {
	key := shipKey{id: r.Txn, sub: -1}
	if r.IsSub {
		key.sub = r.SubIndex
	}
	w, ok := c.shipWaits.find(key)
	if !ok {
		return
	}
	w.done = true
	w.committed = r.Committed
	w.sig.Broadcast()
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
		d, hadRecall := c.deferred.take(e.Obj)
		if !hadRecall && !e.Dirty && e.Mode == lockmgr.ModeShared {
			c.objects.Recycle(e)
			continue // lazy release: a later recall gets NotCached
		}
		size := netsim.ControlBytes
		if e.Dirty {
			size = netsim.ObjectBytes
		}
		// A recall names the shard holding our registration; without one
		// the copy is dirty or exclusive, which only the home shard
		// grants.
		dest := c.homeSite(e.Obj)
		if hadRecall {
			dest = d.from
		}
		epoch := c.bumpEpoch(e.Obj, dest) // this return releases the registration
		c.sendReturn(dest, size, proto.ObjReturn{
			Client: c.id, Obj: e.Obj, HasData: e.Dirty, Version: e.Version,
			Epoch: epoch, Load: c.loadReport(),
		})
		c.objects.Recycle(e)
	}
}

// afterRelease runs when a transaction's pins drop: forward any
// migrating objects whose turn is over, and answer recalls deferred
// while the objects were pinned.
func (c *Client) afterRelease(ops []txn.Op, id txn.ID) {
	for _, op := range ops {
		if c.migrating(op.Obj) {
			e := c.objects.Peek(op.Obj)
			if e != nil && e.Pins() == 1 {
				// Only the migration pin remains: this site's turn is
				// over, pass the object on.
				c.forwardMigration(op.Obj)
			}
			continue
		}
		if d, ok := c.deferred.find(op.Obj); ok {
			e := c.objects.Peek(op.Obj)
			switch {
			case e == nil:
				// The grant the recall referred to never materialized
				// (or the copy is gone): release the lock outright.
				c.deferred.take(op.Obj)
				epoch := c.bumpEpoch(op.Obj, d.from)
				c.sendReturn(d.from, netsim.ControlBytes, proto.ObjReturn{
					Client: c.id, Obj: op.Obj, NotCached: true, Epoch: epoch,
					Load: c.loadReport(),
				})
			case !e.Pinned():
				c.deferred.take(op.Obj)
				c.answerRecall(e, d.r, d.from)
			}
		}
	}
}

// forwardMigration advances a migrating object: hand it to the next
// live forward-list entry. Consecutive entries for this same client are
// served in place (the object never leaves); otherwise the object hops
// to the next client, or returns to the server after the last entry.
func (c *Client) forwardMigration(obj lockmgr.ObjectID) {
	l, migrating := c.migrations.find(obj)
	if !migrating {
		return
	}
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
	for {
		next, ok, _ := l.PopLive(now)
		if ok && next.Client == c.id {
			// Our own next turn: the migration holds the object
			// exclusively at the global level, so the local mode can be
			// raised to whatever this entry needs.
			if next.Mode == lockmgr.ModeExclusive {
				e.Mode = lockmgr.ModeExclusive
			}
			if c.wakeWaiters(obj, e.Mode, 0) > 0 { // no message brought it: no transit
				return // that transaction's afterRelease resumes the hop
			}
			continue // entry's transaction is gone; try the next one
		}

		c.migrations.take(obj)
		d, hadRecall := c.deferred.take(obj)
		c.objects.Unpin(e)
		version := e.Version

		// Keep a clean shared copy when nothing downstream writes (the
		// downgrade idea extended to migration chains); a pending recall
		// or a downstream EL forbids retention.
		retain := c.cfg.UseDowngrade && !hadRecall &&
			(!ok || next.Mode == lockmgr.ModeShared && !l.HasExclusive())
		if retain {
			e.Mode = lockmgr.ModeShared
			e.Dirty = false
			l.Retained = append(l.Retained, c.id)
		} else {
			c.objects.Recycle(c.objects.Remove(obj))
		}
		if ok {
			c.ForwardHops++
			c.tr.Point(next.Txn, c.id, trace.EvMigrationHop, obj, int64(next.Client), 0, now)
			c.sendHop(next.Client, proto.ObjGrant{
				Obj: obj, Mode: next.Mode, Version: version, Txn: next.Txn,
				Epoch: next.Epoch, Fwd: l,
			})
		} else {
			home := c.homeSite(obj)
			c.sendReturn(home, netsim.ObjectBytes, proto.ObjReturn{
				Client: c.id, Obj: obj, HasData: true, Version: version,
				Migration: true, RetainedSL: l.Retained,
				Epoch: c.epochOf(obj, home), Load: c.loadReport(),
			})
		}
		if hadRecall {
			// The recall that arrived mid-migration is answered with a
			// release: the object has moved on.
			epoch := c.bumpEpoch(obj, d.from)
			c.sendReturn(d.from, netsim.ControlBytes, proto.ObjReturn{
				Client: c.id, Obj: obj, NotCached: true, Epoch: epoch,
				Load: c.loadReport(),
			})
		}
		return
	}
}
