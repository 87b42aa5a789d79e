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
	"siteselect/internal/slab"
	"siteselect/internal/trace"
)

// objRec is what this client has in flight for one object beyond its
// cached copy: the exchanges waiting for a grant of it, the requests
// whose answers may still arrive, the recall parked on it, the forward
// list it migrates under. A record lives only while it holds one of the
// four (settle), so a client keeps a handful, found by a scan of
// Client.objs. The cache entry (mode, version, dirty, pins; the LRU
// node) stays outside it (DESIGN.md, "One record per object").
type objRec struct {
	obj lockmgr.ObjectID
	// waiters are the open exchanges waiting for obj, in registration
	// order: a grant wakes them in it.
	waiters []*pendingTxn
	// reqs are obj's open requests.
	reqs []openReq
	// rels are the numbers of the releases of obj this client sent while
	// the record lived, the last one per shard: a shard renumbers its
	// waiting requests to them.
	rels []relMark
	// recall is the callback parked on obj, with the shard to answer;
	// parked says there is one. A second recall replaces the first.
	recall deferredRecall
	parked bool
	// fwd is the forward list obj migrates under, nil when it does not;
	// a migrating object stays pinned until it is passed on.
	fwd *forward.List
}

// openReq is a request whose answers may still arrive, whether or not an
// exchange still waits for it: its transaction may have given up, or a
// grant for another request satisfied it. Its number stays open until
// the shard has answered each of its sends (left are unanswered) or the
// request is too old for an answer (until).
type openReq struct {
	num   int64
	until time.Duration
	left  uint8
}

// relMark is the number of the last release of an object sent to one
// shard.
type relMark struct {
	site netsim.SiteID
	num  int64
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
// it has none — and then first forgets, at every record, the open
// requests too old for an answer, handing back the records that held
// nothing else.
func (c *Client) recFor(obj lockmgr.ObjectID) *objRec {
	if r := c.rec(obj); r != nil {
		return r
	}
	now := c.env.Now()
	for i := len(c.objs) - 1; i >= 0; i-- {
		o := c.objs[i]
		o.reqs = slices.DeleteFunc(o.reqs, func(q openReq) bool { return q.until < now })
		c.settle(o)
	}
	r := c.stock.objs.New()
	r.obj = obj
	enlist(&c.objs, r, &c.stock.objLists)
	return r
}

// settle hands r back once it holds nothing.
func (c *Client) settle(r *objRec) {
	if len(r.waiters) == 0 && len(r.reqs) == 0 && !r.parked && r.fwd == nil {
		unlist(&c.objs, r, &c.stock.objLists)
		c.recycleObj(r)
	}
}

// recycleObj hands r back to the system's stock with its waiter array,
// cleared to capacity; every other field is zeroed, so the site that
// takes it next finds nothing of this one.
func (c *Client) recycleObj(r *objRec) {
	clear(r.waiters[:cap(r.waiters)])
	*r = objRec{waiters: r.waiters[:0], reqs: r.reqs[:0], rels: r.rels[:0]}
	c.stock.objs.Keep(r)
}

// enlist appends x to *list, a vector grown in blocks of s, the
// system's: a site's lists take no array of their own.
func enlist[T any](list *[]*T, x *T, s *slab.Slab[*T]) {
	*list = s.Insert(*list, len(*list), x, 0)
}

// unlist removes x from *list, a vector enlist grew, moving the last
// element into its place: the lists it serves are only ever searched.
// The list that empties hands its block back to s.
func unlist[T any](list *[]*T, x *T, s *slab.Slab[*T]) {
	l := *list
	last := len(l) - 1
	l[slices.Index(l, x)] = l[last]
	l[last] = nil
	if last == 0 {
		s.Drop(l, 0)
		l = nil
	}
	*list = l[:last]
}

// register records pt's request for obj in mode, sent at sent, under a
// new request number: a wait of the exchange, a waiter on obj's record
// and an open request.
func (c *Client) register(pt *pendingTxn, obj lockmgr.ObjectID, mode lockmgr.Mode, sent time.Duration) {
	num := c.newNum()
	pt.waits = c.stock.waits.Insert(pt.waits, len(pt.waits), objWait{obj: obj, mode: mode, sent: sent, num: num}, 0)
	r := c.recFor(obj)
	r.waiters = c.stock.pendLists.Insert(r.waiters, len(r.waiters), pt, 0)
	r.reqs = c.stock.reqs.Insert(r.reqs, len(r.reqs), openReq{num: num, until: c.lateUntil(pt.t.Deadline)}, 0)
}

// unregister drops pt's registration on obj, if it has one; the request
// stays open.
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

// Request numbers (docs/PROTOCOL.md §4). Every object request carries a
// number the system has not used before; the shard keeps it with the
// registration the request makes and every grant of that registration
// echoes it. A number is open while its request is (objRec.reqs): a
// grant whose number is not open is dropped. Giving a registration up —
// a release, a return with the copy, a downgrade — opens a fresh number
// that the return carries: the shard renumbers the client's requests for
// the object still waiting there to it, and the client expects it, not
// the old number, for those requests from that shard (expect). So a
// grant sent before the shard processed the return carries a number the
// client closed, and one sent after carries one it holds open. Nothing
// is kept once nothing is in flight: a request made after a release has
// a number above it.

// newNum opens a request number: the system's next.
func (c *Client) newNum() int64 {
	c.stock.lastNum++
	return c.stock.lastNum
}

// release opens the number a return of obj to site carries, one that
// gives a registration up, and returns it: obj's open requests expect it
// from site from now on.
func (c *Client) release(obj lockmgr.ObjectID, site netsim.SiteID) int64 {
	num := c.newNum()
	if r := c.rec(obj); r != nil {
		i := slices.IndexFunc(r.rels, func(m relMark) bool { return m.site == site })
		if i < 0 {
			i = len(r.rels)
			r.rels = c.stock.rels.Insert(r.rels, i, relMark{site: site}, 0)
		}
		r.rels[i].num = num
	}
	return num
}

// expect is the number a grant from site carries for the request
// numbered num of r's object: the number of the last release of the
// object sent to site after the request — the shard renumbered the
// request to it — or num itself.
func (r *objRec) expect(num int64, site netsim.SiteID) int64 {
	for _, m := range r.rels {
		if m.site == site && m.num > num {
			return m.num
		}
	}
	return num
}

// sent counts a send of the request numbered num of r's object.
func (r *objRec) sent(num int64) {
	for i := range r.reqs {
		if q := &r.reqs[i]; q.num == num {
			q.left = min(q.left+1, 255)
		}
	}
}

// open reports whether a grant of obj from site numbered num answers a
// request open here, and counts the answer against it. Under fault
// injection a request answered in full stays open for one more answer
// for a retransmission timeout: the network may have delivered one of
// its sends twice, and the duplicate's answer trails the first by about
// a latency.
func (c *Client) open(obj lockmgr.ObjectID, site netsim.SiteID, num int64) bool {
	r := c.rec(obj)
	if r == nil {
		return false
	}
	now := c.env.Now()
	for i := range r.reqs {
		q := &r.reqs[i]
		if q.left == 0 || q.until < now || r.expect(q.num, site) != num {
			continue
		}
		switch q.left--; {
		case q.left > 0:
		case c.faulty:
			q.left, q.until = 1, now+c.rto
		default:
			r.reqs = slices.Delete(r.reqs, i, i+1)
		}
		return true
	}
	return false
}

// lateUntil is how long a request of a transaction with the given
// deadline stays open for a late grant. A shard decides a grant by the
// request's deadline, and the grant arrives after its page read and its
// time on the wire, which a client outage or a partition prolongs by at
// most their length; a minute covers the rest. A grant later than that
// is dropped, and the shard's registration is released lazily, as after
// any drop.
func (c *Client) lateUntil(deadline time.Duration) time.Duration {
	return deadline + time.Minute + c.cfg.OutageDuration + c.cfg.Faults.PartitionDuration
}
