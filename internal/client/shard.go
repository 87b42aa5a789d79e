package client

import (
	"math"
	"slices"

	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/shardmap"
	"siteselect/internal/txn"
)

// Multi-server routing (config.Topology.Servers > 1).
//
// With a sharded server, every piece of client state that used to be
// implicitly "at the server" gains a site coordinate: requests route to
// an object's home shard (or to a read replica for shared-mode
// requests), release epochs count per (object, granting shard), and a
// deferred recall remembers which shard issued it so the eventual
// answer returns there. All of it is gated on multiShard: at a single
// server every site below is netsim.ServerSite and every code path
// collapses to the exact single-server behavior the golden corpus pins.

// deferredRecall is a parked recall plus the shard that issued it — the
// site the eventual answer must be sent to.
type deferredRecall struct {
	r    proto.Recall
	from netsim.SiteID
}

// homeSite returns the shard site authoritative for obj.
func (c *Client) homeSite(obj lockmgr.ObjectID) netsim.SiteID {
	if !c.multiShard {
		return netsim.ServerSite
	}
	return c.topo.HomeSite(obj)
}

// routeSite returns the shard a firm request for obj should be sent
// to: a registered read replica for shared-mode requests, else the home
// shard.
func (c *Client) routeSite(obj lockmgr.ObjectID, mode lockmgr.Mode) netsim.SiteID {
	if !c.multiShard {
		return netsim.ServerSite
	}
	return c.topo.RouteSite(obj, mode == lockmgr.ModeShared)
}

// grantSource returns the shard whose registration the
// currently-dispatched message belongs to: the sending shard when one
// sent it directly, else the object's home shard (peer-forwarded
// migration hops and read runs are always issued by the home shard).
func (c *Client) grantSource(obj lockmgr.ObjectID) netsim.SiteID {
	if shardmap.IsShardSite(c.curFrom) {
		return c.curFrom
	}
	return c.homeSite(obj)
}

// epochOf and bumpEpoch access the release-epoch counter shared with
// one shard for one object. The epoch protocol runs independently per
// (object, granting shard): each shard keeps its own registration for
// this client, so a release sent to one shard must not revoke grants in
// flight from another.
func (c *Client) epochOf(obj lockmgr.ObjectID, site netsim.SiteID) int64 {
	if i, ok := c.epochIdx(obj, site); ok {
		return c.epochs[i].n
	}
	return 0
}

func (c *Client) bumpEpoch(obj lockmgr.ObjectID, site netsim.SiteID) int64 {
	i, ok := c.epochIdx(obj, site)
	if ok {
		c.epochs[i].n++
		return c.epochs[i].n
	}
	c.epochs = append(c.epochs, epochEntry{})
	copy(c.epochs[i+1:], c.epochs[i:])
	c.epochs[i] = epochEntry{obj: obj, site: site, n: 1}
	return 1
}

// noSite marks an access already sent, or filtered out, in a routing
// vector (shard sites are <= 0, client sites positive).
const noSite netsim.SiteID = math.MinInt

// routeAll appends to sites the shard each access must be sent to:
// its home shard when byHome (location queries), otherwise routeSite
// (firm requests, which may prefer a replica). With pt non-nil, accesses
// the transaction no longer waits for are marked noSite, so a
// retransmission does not ask a shard that already served its slice.
func (c *Client) routeAll(sites []netsim.SiteID, ops []txn.Op, byHome bool, pt *pendingTxn) []netsim.SiteID {
	for _, op := range ops {
		switch {
		case pt != nil && pt.findWait(op.Obj) < 0:
			sites = append(sites, noSite)
		case byHome:
			sites = append(sites, c.homeSite(op.Obj))
		default:
			sites = append(sites, c.routeSite(op.Obj, op.Mode()))
		}
	}
	return sites
}

// takeGroup appends to a payload's access vectors every access routed
// to the same shard as access i, and marks them taken. Walking the
// routing vector and taking the group of each access still marked
// splits a request per shard in first-appearance order, so the split is
// deterministic.
func takeGroup(sites []netsim.SiteID, i int, ops []txn.Op,
	objs []lockmgr.ObjectID, modes []lockmgr.Mode) ([]lockmgr.ObjectID, []lockmgr.Mode) {
	site := sites[i]
	for j := i; j < len(sites); j++ {
		if sites[j] == site {
			objs = append(objs, ops[j].Obj)
			modes = append(modes, ops[j].Mode())
			sites[j] = noSite
		}
	}
	return objs, modes
}

// resendSharded is resend's multi-shard counterpart: multi-object
// exchanges split into one message per shard, each a pooled record
// whose access vectors are filled in place. Retransmissions of probe
// and commit rounds drop already-granted objects (pt.waits tracks them),
// so a shard that served its slice is not asked again.
func (m *txnMachine) resendSharded(attempt int) {
	c, t, pt := m.c, m.t, m.pt
	var stack [16]netsim.SiteID
	switch m.sendKind {
	case skLoad:
		if attempt == 0 {
			clear(pt.loadFrom)
			pt.loadFrom = pt.loadFrom[:0]
		}
		sites := c.routeAll(stack[:0], t.Ops, true, nil)
		pt.loadWant = 0
		for i, site := range sites {
			if site == noSite {
				continue
			}
			pt.loadWant++
			q := c.payloads.LoadQuery.Get()
			q.Client, q.Txn, q.Deadline, q.Attempt, q.Load = c.id, t.ID, t.Deadline, attempt, c.loadReport()
			q.Objs, q.Modes = takeGroup(sites, i, t.Ops, q.Objs, q.Modes)
			pt.netAccum += c.toSite(site, netsim.KindLoadQuery, netsim.ControlBytes, q)
		}
	case skProbe:
		if attempt == 0 {
			clear(pt.confFrom)
			pt.confFrom = pt.confFrom[:0]
		}
		sites := c.routeAll(stack[:0], m.missing, false, pt)
		for i, site := range sites {
			if site == noSite {
				continue
			}
			q := c.payloads.ProbeRequest.Get()
			q.Client, q.Txn, q.Deadline, q.Attempt, q.Load = c.id, t.ID, t.Deadline, attempt, c.loadReport()
			q.Objs, q.Modes = takeGroup(sites, i, m.missing, q.Objs, q.Modes)
			pt.netAccum += c.toSite(site, netsim.KindObjectRequest, netsim.ControlBytes, q)
		}
	case skCommit:
		sites := c.routeAll(stack[:0], m.missing, false, pt)
		for i, site := range sites {
			if site == noSite {
				continue
			}
			q := c.payloads.CommitRequest.Get()
			q.Client, q.Txn, q.Deadline, q.Attempt, q.Load = c.id, t.ID, t.Deadline, attempt, c.loadReport()
			q.Objs, q.Modes = takeGroup(sites, i, m.missing, q.Objs, q.Modes)
			pt.netAccum += c.toSite(site, netsim.KindObjectRequest, netsim.ControlBytes, q)
		}
	default: // skSeq
		m.sendSeq(c.routeSite(m.curObj, m.curMode), attempt)
	}
}

// mergeConflict folds one shard's ConflictReply into the transaction's
// merged view. Each shard answers for its own slice of the probe;
// replies accumulate keyed by sender (idempotent under retransmission)
// and the merged conflict list, load table (first report per site wins)
// and data counts (summed per site) are rebuilt in shard order so the
// result is deterministic regardless of reply arrival order. The waiter
// wakes on the first conflict: H2 then decides on the conflicts seen so
// far, a deliberate heuristic — waiting for every shard would trade
// deadline slack for information the decision may not need.
func (c *Client) mergeConflict(pt *pendingTxn, r proto.ConflictReply) {
	replaced := false
	for i := range pt.confFrom {
		if pt.confFrom[i].from == c.curFrom {
			pt.confFrom[i].reply = r
			replaced = true
			break
		}
	}
	if !replaced {
		pt.confFrom = append(pt.confFrom, shardConflict{from: c.curFrom, reply: r})
	}
	pt.gotConflict = true
	// In multi-shard mode these vectors are only ever written by this
	// merge, so their capacity is reusable scratch (the single-server
	// path aliases message payloads instead and never reaches here).
	pt.conflicts = pt.conflicts[:0]
	pt.loads = pt.loads[:0]
	pt.dataCounts = pt.dataCounts[:0]
	for k := 0; k < c.topo.Servers(); k++ {
		site := shardmap.ShardSite(k)
		var rep *proto.ConflictReply
		for i := range pt.confFrom {
			if pt.confFrom[i].from == site {
				rep = &pt.confFrom[i].reply
				break
			}
		}
		if rep == nil {
			continue
		}
		pt.conflicts = append(pt.conflicts, rep.Conflicts...)
		for _, l := range rep.Loads {
			dup := false
			for _, have := range pt.loads {
				if have.Client == l.Client {
					dup = true
					break
				}
			}
			if !dup {
				pt.loads = append(pt.loads, l)
			}
		}
		for _, dc := range rep.DataCounts {
			found := false
			for i := range pt.dataCounts {
				if pt.dataCounts[i].Site == dc.Site {
					pt.dataCounts[i].Count += dc.Count
					found = true
					break
				}
			}
			if !found {
				pt.dataCounts = append(pt.dataCounts, proto.SiteCount{Site: dc.Site, Count: dc.Count})
			}
		}
	}
	slices.SortFunc(pt.dataCounts, func(a, b proto.SiteCount) int {
		return int(a.Site) - int(b.Site)
	})
}

// mergeLoadReplies assembles the merged LoadReply once every queried
// shard has answered, in shard order for determinism. Loads dedup per
// reporting site (first wins).
func (c *Client) mergeLoadReplies(pt *pendingTxn, id txn.ID) {
	merged := proto.LoadReply{Txn: id}
	for k := 0; k < c.topo.Servers(); k++ {
		site := shardmap.ShardSite(k)
		var rep *proto.LoadReply
		for i := range pt.loadFrom {
			if pt.loadFrom[i].from == site {
				rep = &pt.loadFrom[i].reply
				break
			}
		}
		if rep == nil {
			continue
		}
		merged.Locations = append(merged.Locations, rep.Locations...)
		for _, l := range rep.Loads {
			dup := false
			for _, have := range merged.Loads {
				if have.Client == l.Client {
					dup = true
					break
				}
			}
			if !dup {
				merged.Loads = append(merged.Loads, l)
			}
		}
	}
	pt.loadReply = merged
	pt.hasLoad = true
}
