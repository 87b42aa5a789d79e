package client

import (
	"slices"
	"strings"
	"time"

	"siteselect/internal/cache"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/trace"
)

// objRec is what this client has in flight for one object beyond its
// cached copy: the exchanges waiting for a grant of it, the recall
// parked on it, the forward list it migrates under. A record lives only
// while it holds one of the three (settle), so a client keeps a handful,
// found by a scan of Client.objs. Two things about an object stay
// outside it: the cache entry (mode, version, dirty, pins; the LRU
// node), and the release-epoch counters of Client.epochs, which must
// live as long as the shard's counters they mirror — for the rest of
// the run (DESIGN.md, "One record per object").
type objRec struct {
	obj lockmgr.ObjectID
	// waiters are the open exchanges waiting for obj, in registration
	// order: a grant wakes them in it.
	waiters []*pendingTxn
	// recall is the callback parked on obj, with the shard to answer;
	// parked says there is one. A second recall replaces the first.
	recall deferredRecall
	parked bool
	// fwd is the forward list obj migrates under, nil when it does not;
	// a migrating object stays pinned until it is passed on.
	fwd *forward.List
}

// deferredRecall is a parked recall plus the shard that issued it — the
// site the eventual answer must be sent to.
type deferredRecall struct {
	r    proto.Recall
	from netsim.SiteID
}

// objPhase is where an object stands at this client in the callback
// protocol. It is derived from the object's record and cache entry
// (Client.phase), never stored, so it cannot disagree with them. The
// phases combine: a transaction may wait for an object a recall is
// parked on, and a recall may be parked on a migrating object.
type objPhase uint8

const (
	phIdle      objPhase = 0
	phRequested objPhase = 1 << (iota - 1) // a transaction waits for a grant
	phMigrating                            // held for a forward-list hop
	// A recall is parked: on a copy a running transaction pins; on a
	// copy whose mode is not the recall's HolderMode (the grant it refers
	// to is on the wire); with no copy yet (the grant is on the wire, a
	// transaction waits for it); or on a clear copy — in, unpinned, in
	// the recall's mode — that the grant brought, until the transaction it
	// woke has released it.
	phParkedPinned
	phParkedMode
	phParkedNoCopy
	phParkedClear

	phParked = phParkedPinned | phParkedMode | phParkedNoCopy | phParkedClear
	// phParkedFree is a recall that can be answered now: the copy is in
	// and nobody pins it.
	phParkedFree = phParkedMode | phParkedClear
)

var phaseNames = [...]string{"requested", "migrating", "parked-pinned", "parked-mode", "parked-no-copy", "parked-clear"}

func (p objPhase) String() string {
	if p == phIdle {
		return "idle"
	}
	var names []string
	for i, name := range phaseNames {
		if p&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, "+")
}

// parkedOn is the phase recall r parks in with e as its object's cached
// copy (nil: none); phParkedClear when nothing stands in its way.
func parkedOn(e *cache.Entry, r proto.Recall) objPhase {
	switch {
	case e == nil:
		return phParkedNoCopy
	case e.Pinned():
		return phParkedPinned
	case r.HolderMode != 0 && r.HolderMode != e.Mode():
		return phParkedMode
	}
	return phParkedClear
}

// phase derives obj's phase from its record and, when a recall is
// parked, its cache entry.
func (c *Client) phase(obj lockmgr.ObjectID) objPhase {
	r := c.rec(obj)
	if r == nil {
		return phIdle
	}
	var p objPhase
	if len(r.waiters) > 0 {
		p |= phRequested
	}
	if r.fwd != nil {
		p |= phMigrating
	}
	if r.parked {
		p |= parkedOn(c.objects.Peek(obj), r.recall.r)
	}
	return p
}

// rec returns obj's record, nil when it has none.
func (c *Client) rec(obj lockmgr.ObjectID) *objRec {
	for _, r := range c.objs {
		if r.obj == obj {
			return r
		}
	}
	return nil
}

// recFor returns obj's record, taking one from the system's stock when
// it has none.
func (c *Client) recFor(obj lockmgr.ObjectID) *objRec {
	if r := c.rec(obj); r != nil {
		return r
	}
	r := c.stock.objs.New()
	r.obj = obj
	c.objs = append(c.objs, r)
	return r
}

// settle hands r back once it holds nothing.
func (c *Client) settle(r *objRec) {
	if len(r.waiters) == 0 && !r.parked && r.fwd == nil {
		unlist(&c.objs, r)
		c.recycleObj(r)
	}
}

// recycleObj hands r back to the system's stock with its waiter array,
// cleared to capacity; every other field is zeroed, so the site that
// takes it next finds nothing of this one.
func (c *Client) recycleObj(r *objRec) {
	clear(r.waiters[:cap(r.waiters)])
	*r = objRec{waiters: r.waiters[:0]}
	c.stock.objs.Keep(r)
}

// unlist removes x from *list, moving the last element into its place:
// the lists it serves are only ever searched.
func unlist[T any](list *[]*T, x *T) {
	s := *list
	last := len(s) - 1
	s[slices.Index(s, x)] = s[last]
	s[last] = nil
	*list = s[:last]
}

// register records pt's request for obj in mode, sent at sent: a wait
// of the exchange and a waiter on obj's record.
func (c *Client) register(pt *pendingTxn, obj lockmgr.ObjectID, mode lockmgr.Mode, sent time.Duration) {
	pt.waits = append(pt.waits, objWait{obj: obj, mode: mode, sent: sent})
	r := c.recFor(obj)
	r.waiters = append(r.waiters, pt)
}

// unregister drops pt's registration on obj, if it has one.
func (c *Client) unregister(obj lockmgr.ObjectID, pt *pendingTxn) {
	r := c.rec(obj)
	if r == nil {
		return
	}
	if i := slices.Index(r.waiters, pt); i >= 0 {
		r.waiters = slices.Delete(r.waiters, i, i+1)
	}
	c.settle(r)
}

// wakeWaiters hands obj, now cached here in mode, to every waiting
// transaction that mode satisfies, in registration order, and reports
// how many there were; transit is the wire time of the message that
// brought the object, added to each one's network attribution.
// Broadcast only schedules the wakeups (sim.Signal defers them to the
// event queue), so no registration can appear or vanish mid-scan.
func (c *Client) wakeWaiters(obj lockmgr.ObjectID, mode lockmgr.Mode, transit time.Duration) int {
	r := c.rec(obj)
	if r == nil {
		return 0
	}
	now := c.env.Now()
	satisfied := 0
	for i := 0; i < len(r.waiters); {
		pt := r.waiters[i]
		j := pt.findWait(obj)
		if j < 0 || !modeSufficient(mode, pt.waits[j].mode) {
			i++
			continue
		}
		need, sent := pt.waits[j].mode, pt.waits[j].sent
		pt.removeWait(j)
		r.waiters = slices.Delete(r.waiters, i, i+1) // the next one shifts into i
		if c.measuring() {
			c.m.RecordResponse(need, now-sent)
		}
		pt.netAccum += transit
		c.tr.Point(pt.t.ID, c.id, trace.EvLockGranted, obj, 0, 0, now)
		satisfied++
		pt.sig.Broadcast()
	}
	c.settle(r)
	return satisfied
}

// parkRecall parks recall r from the shard at from on obj, in place of
// any recall parked there. A parked recall excuses a dirty copy held
// without an exclusive lock, so parking one and taking it (takeRecall)
// are reported to a watching monitor.
func (c *Client) parkRecall(obj lockmgr.ObjectID, r proto.Recall, from netsim.SiteID) {
	rec := c.recFor(obj)
	rec.recall, rec.parked = deferredRecall{r: r, from: from}, true
	c.objects.Report(obj)
}

// takeRecall removes and returns the recall parked on obj.
func (c *Client) takeRecall(obj lockmgr.ObjectID) (deferredRecall, bool) {
	r := c.rec(obj)
	if r == nil || !r.parked {
		return deferredRecall{}, false
	}
	d := r.recall
	r.recall, r.parked = deferredRecall{}, false
	c.settle(r)
	c.objects.Report(obj)
	return d, true
}

// PlantRecall parks a blank recall from obj's home shard on obj, or
// (parked false) drops the one parked there unanswered — which the
// protocol never does. It is the seam through which the invariant
// monitor's tests plant a dirty shared copy and then take away the
// recall that excused it.
func (c *Client) PlantRecall(obj lockmgr.ObjectID, parked bool) {
	if parked {
		c.parkRecall(obj, proto.Recall{Obj: obj}, c.homeSite(obj))
	} else {
		c.takeRecall(obj)
	}
}

// answerParked answers the recall parked on obj, whose copy is in and
// unpinned (phParkedFree).
func (c *Client) answerParked(obj lockmgr.ObjectID) {
	d, _ := c.takeRecall(obj)
	c.answerRecall(c.objects.Peek(obj), d.r, d.from)
}
