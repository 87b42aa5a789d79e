package client

import (
	"math"
	"slices"

	"siteselect/internal/loadshare"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/shardmap"
	"siteselect/internal/txn"
)

// Routing over the server tier (config.Topology).
//
// Every piece of client state that is "at the server" has a site
// coordinate: requests route to an object's home shard (or to a read
// replica for shared-mode requests), release epochs count per (object,
// granting shard), a parked recall remembers which shard issued it so
// the eventual answer returns there, and a multi-object exchange is one
// message per shard whose answers are assembled per sender. The paper's
// single server is the one-shard map: every site below is
// netsim.ServerSite, every exchange one message and every assembly one
// reply.

// homeSite returns the shard site authoritative for obj.
func (c *Client) homeSite(obj lockmgr.ObjectID) netsim.SiteID {
	return c.topo.HomeSite(obj)
}

// routeSite returns the shard a firm request for obj should be sent
// to: a registered read replica for shared-mode requests, else the home
// shard.
func (c *Client) routeSite(obj lockmgr.ObjectID, mode lockmgr.Mode) netsim.SiteID {
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
	c.epochs = slices.Insert(c.epochs, i, epochEntry{obj: obj, site: site, n: 1})
	return 1
}

// noSite marks an access already sent, or filtered out, in a routing
// vector (shard sites are <= 0, client sites positive).
const noSite netsim.SiteID = math.MinInt

// routeAll appends to sites the shard each access must be sent to:
// its home shard when byHome (location queries), otherwise routeSite
// (firm requests, which may prefer a replica). With served non-nil,
// accesses that transaction no longer waits for are marked noSite.
func (c *Client) routeAll(sites []netsim.SiteID, ops []txn.Op, byHome bool, served *pendingTxn) []netsim.SiteID {
	for _, op := range ops {
		switch {
		case served != nil && served.findWait(op.Obj) < 0:
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

// resend (re)transmits the current exchange's request: one message per
// shard the accesses route to, each a pooled record whose access
// vectors are filled in place — written into the record's own arrays
// (kept across reuse), never aliased to anything the machine rewrites
// while the frame may still be on the wire. Probe and commit rounds
// cover m.missing, which stands still from beginFetch to the round's
// end; a sequential fetch is the commit round of the one access at its
// cursor.
func (m *txnMachine) resend(attempt int) {
	c, t, pt := m.c, m.t, &m.pt
	// The one rule that differs by topology. With several shards a probe
	// or commit round leaves out the accesses already granted (pt.waits
	// tracks them), so a shard that served its slice is not asked again.
	// A single server is sent every missing access again: its idempotent
	// re-ship of what it already granted is what the lossy goldens pin
	// (ROADMAP item 1(e) lists this as a re-pin candidate).
	served := pt
	if c.topo.Servers() == 1 {
		served = nil
	}
	var stack [16]netsim.SiteID
	switch m.sendKind {
	case skLoad:
		if attempt == 0 {
			pt.loadFrom = c.giveBack(pt.loadFrom)
		}
		sites := c.routeAll(stack[:0], t.Ops, true, nil)
		pt.loadWant = 0
		for i, site := range sites {
			if site == noSite {
				continue
			}
			pt.loadWant++
			q := c.stock.Payloads.LoadQuery.New()
			q.Client, q.Txn, q.Load = c.id, t.ID, c.loadReport()
			q.Objs, q.Modes = takeGroup(sites, i, t.Ops, q.Objs, q.Modes)
			pt.netAccum += c.toSite(site, netsim.KindLoadQuery, netsim.ControlBytes, q)
		}
	case skProbe:
		if attempt == 0 {
			pt.confFrom = c.giveBack(pt.confFrom)
		}
		sites := c.routeAll(stack[:0], m.missing, false, served)
		for i, site := range sites {
			if site == noSite {
				continue
			}
			q := c.stock.Payloads.ProbeRequest.New()
			q.Client, q.Txn, q.Deadline, q.Load = c.id, t.ID, t.Deadline, c.loadReport()
			q.Objs, q.Modes = takeGroup(sites, i, m.missing, q.Objs, q.Modes)
			pt.netAccum += c.toSite(site, netsim.KindObjectRequest, netsim.ControlBytes, q)
		}
	default: // skCommit, skSeq
		ops := m.missing
		if m.sendKind == skSeq {
			ops = ops[m.seqIdx : m.seqIdx+1]
		}
		sites := c.routeAll(stack[:0], ops, false, served)
		for i, site := range sites {
			if site == noSite {
				continue
			}
			q := c.stock.Payloads.CommitRequest.New()
			q.Client, q.Txn, q.Deadline, q.Load = c.id, t.ID, t.Deadline, c.loadReport()
			q.Objs, q.Modes = takeGroup(sites, i, ops, q.Objs, q.Modes)
			pt.netAccum += c.toSite(site, netsim.KindObjectRequest, netsim.ControlBytes, q)
		}
	}
}

// shardReply is one shard's answer to its slice of a split exchange:
// where the objects are (the conflicting holders for a probe, every
// holder for a location query), the known loads of those sites, and —
// probes only — how much of the access set each of them caches. It is
// the client's copy, in a second pooled record (a ConflictReply for
// either kind of answer, locations as its conflicts) held until the
// answers have been read, a few events later: the delivered record goes
// back to the pool with the handler's return.
type shardReply struct {
	from netsim.SiteID
	rec  *proto.ConflictReply
}

// keepReply records a copy of from's answer among rs, in place of an
// earlier one from the same shard (a retransmitted exchange is answered
// twice) and in shard order, whatever order the answers arrive in.
func (c *Client) keepReply(rs []shardReply, from netsim.SiteID,
	objs []proto.ObjConflict, loads []proto.LoadReport, counts []proto.SiteCount) []shardReply {
	i := 0
	for i < len(rs) && rs[i].from > from { // shard k answers from site -k
		i++
	}
	if i < len(rs) && rs[i].from == from {
		c.stock.Payloads.Release(rs[i].rec)
	} else {
		rs = slices.Insert(rs, i, shardReply{from: from})
	}
	rec := c.stock.Payloads.ConflictReply.New()
	for _, o := range objs {
		rec.Conflicts, rec.Flat = proto.AppendLocation(rec.Conflicts, rec.Flat, o.Obj, o.Holders)
	}
	rec.Loads, rec.DataCounts = append(rec.Loads, loads...), append(rec.DataCounts, counts...)
	rs[i].rec = rec
	return rs
}

// giveBack releases the copies in rs, read or superseded; it returns rs[:0].
func (c *Client) giveBack(rs []shardReply) []shardReply {
	for i := range rs {
		c.stock.Payloads.Release(rs[i].rec)
	}
	return rs[:0]
}

// h2Scratch is what a system's site-selection decisions are worked out
// in, one to the next, whichever site takes them (Stock.h2): the load
// table and data counts loadshare.Params takes as maps, the locations
// of an answer from several shards, and the scratch of ChooseSite,
// grouping and Decompose. It is working memory of one step — nothing
// reads it once the step that filled it has returned.
type h2Scratch struct {
	loads  map[netsim.SiteID]proto.LoadReport
	counts map[netsim.SiteID]int
	objs   []proto.ObjConflict
	choose loadshare.Scratch
	groups loadshare.Grouping
	parts  txn.Decomposition
}

// scratch returns the system's decision scratch, its maps made by the
// first decision.
func (c *Client) scratch() *h2Scratch {
	sc := &c.stock.h2
	if sc.loads == nil {
		sc.loads, sc.counts = map[netsim.SiteID]proto.LoadReport{}, map[netsim.SiteID]int{}
	}
	return sc
}

// h2Inputs reads the answers of a split exchange into the inputs of
// site selection — locations, load table (a site's first report wins),
// data counts (summed per site) — good until the next call.
func (c *Client) h2Inputs(rs []shardReply) ([]proto.ObjConflict, map[netsim.SiteID]proto.LoadReport, map[netsim.SiteID]int) {
	sc := c.scratch()
	clear(sc.loads)
	clear(sc.counts)
	for i := range rs {
		for _, l := range rs[i].rec.Loads {
			if _, have := sc.loads[l.Client]; !have {
				sc.loads[l.Client] = l
			}
		}
		for _, dc := range rs[i].rec.DataCounts {
			sc.counts[dc.Site] += dc.Count
		}
	}
	return c.locations(rs), sc.loads, sc.counts
}

// locations returns the object locations the answers report: a lone
// answer's own vector, else a concatenation in shard order in scratch.
func (c *Client) locations(rs []shardReply) []proto.ObjConflict {
	if len(rs) == 1 {
		return rs[0].rec.Conflicts
	}
	sc := c.scratch()
	sc.objs = sc.objs[:0]
	for i := range rs {
		sc.objs = append(sc.objs, rs[i].rec.Conflicts...)
	}
	return sc.objs
}
