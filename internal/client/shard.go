package client

import (
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

// shardGroup is one shard's slice of a multi-object request.
type shardGroup struct {
	site  netsim.SiteID
	objs  []lockmgr.ObjectID
	modes []lockmgr.Mode
}

// groupByShard partitions an access list by the shard each entry must
// be sent to, preserving first-appearance order so the split is
// deterministic. byHome groups by home shard (location queries);
// otherwise by routeSite (firm requests, which may prefer a replica).
// keep, when non-nil, drops entries it rejects.
func (c *Client) groupByShard(objs []lockmgr.ObjectID, modes []lockmgr.Mode,
	byHome bool, keep func(lockmgr.ObjectID) bool) []shardGroup {
	// The groups (and their object vectors) escape into message
	// payloads, so they are freshly allocated; only the site lookup is
	// dense — a scan over at most Servers() groups beats a map here.
	var groups []shardGroup
	for i, obj := range objs {
		if keep != nil && !keep(obj) {
			continue
		}
		site := c.homeSite(obj)
		if !byHome {
			site = c.routeSite(obj, modes[i])
		}
		gi := -1
		for k := range groups {
			if groups[k].site == site {
				gi = k
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, shardGroup{site: site})
		}
		groups[gi].objs = append(groups[gi].objs, obj)
		groups[gi].modes = append(groups[gi].modes, modes[i])
	}
	return groups
}

// resendSharded is resend's multi-shard counterpart: multi-object
// exchanges split into one message per shard. Retransmissions of probe
// and commit rounds drop already-granted objects (pt.want tracks them),
// so a shard that served its slice is not asked again.
func (m *txnMachine) resendSharded(attempt int) {
	c, t, pt := m.c, m.t, m.pt
	stillWanted := func(obj lockmgr.ObjectID) bool {
		return pt.findWait(obj) >= 0
	}
	switch m.sendKind {
	case skLoad:
		if attempt == 0 {
			clear(pt.loadFrom)
			pt.loadFrom = pt.loadFrom[:0]
		}
		groups := c.groupByShard(t.Objects(), t.Modes(), true, nil)
		pt.loadWant = len(groups)
		for _, g := range groups {
			pt.netAccum += c.toSite(g.site, netsim.KindLoadQuery, netsim.ControlBytes, proto.LoadQuery{
				Client:   c.id,
				Txn:      t.ID,
				Objs:     g.objs,
				Modes:    g.modes,
				Deadline: t.Deadline,
				Attempt:  attempt,
				Load:     c.loadReport(),
			})
		}
	case skProbe:
		if attempt == 0 {
			clear(pt.confFrom)
			pt.confFrom = pt.confFrom[:0]
		}
		for _, g := range c.groupByShard(m.objs, m.modes, false, stillWanted) {
			pt.netAccum += c.toSite(g.site, netsim.KindObjectRequest, netsim.ControlBytes, proto.ProbeRequest{
				Client:   c.id,
				Txn:      t.ID,
				Objs:     g.objs,
				Modes:    g.modes,
				Deadline: t.Deadline,
				Attempt:  attempt,
				Load:     c.loadReport(),
			})
		}
	case skCommit:
		for _, g := range c.groupByShard(m.objs, m.modes, false, stillWanted) {
			pt.netAccum += c.toSite(g.site, netsim.KindObjectRequest, netsim.ControlBytes, proto.CommitRequest{
				Client:   c.id,
				Txn:      t.ID,
				Deadline: t.Deadline,
				Objs:     g.objs,
				Modes:    g.modes,
				Attempt:  attempt,
				Load:     c.loadReport(),
			})
		}
	default: // skSeq
		pt.netAccum += c.toSite(c.routeSite(m.curObj, m.curMode), netsim.KindObjectRequest, netsim.ControlBytes, proto.ObjRequest{
			Client:   c.id,
			Txn:      t.ID,
			Obj:      m.curObj,
			Mode:     m.curMode,
			Deadline: t.Deadline,
			Attempt:  attempt,
			Load:     c.loadReport(),
		})
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
