package proto

import (
	"fmt"

	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/slab"
)

// Pool is one cluster's stock of payload records, a slab per payload
// type. A payload travels as a pointer to a record the sender took with
// New and filled in place; the dispatch loop that receives
// the frame hands the record back with Release once its handler has
// returned, unless the frame is marked netsim.Message.Shared. Handlers
// therefore take payloads by value or must not keep the pointer.
//
// The pool belongs to the cluster it serves — the system constructor
// makes one and hands it to every client and server, as it does the
// config and the network — and is never package-level state: the
// experiment runner drives many clusters on many goroutines, a cluster
// is single-threaded, and a finished cluster's records must die with
// it. A slab grows to the peak number of frames in flight — and by one
// record for every frame the fault layer drops or delivers twice, which
// is never handed back — and no further; the zero Pool is ready to use.
type Pool struct {
	ObjRequest     slab.Slab[ObjRequest]
	GrantMsg       slab.Slab[GrantMsg]
	Locations      slab.Slab[Locations]
	DenyReply      slab.Slab[DenyReply]
	RecallMsg      slab.Slab[RecallMsg]
	ReplicaInstall slab.Slab[ReplicaInstall]
	ObjReturn      slab.Slab[ObjReturn]
	TxnShip        slab.Slab[TxnShip]
	TxnResult      slab.Slab[TxnResult]

	// Lists is the stock of the forward lists the cluster's grants and
	// returns carry.
	Lists forward.Stock

	// The blocks the vectors of a request, a location reply, a grant or a
	// recall message are sized from (FitAccesses, CopyLocations,
	// FitGrants, FitRecalls).
	objs      slab.Slab[lockmgr.ObjectID]
	modes     slab.Slab[lockmgr.Mode]
	nums      slab.Slab[int64]
	conflicts slab.Slab[ObjConflict]
	sites     slab.Slab[netsim.SiteID]
	loads     slab.Slab[LoadReport]
	counts    slab.Slab[SiteCount]
	grants    slab.Slab[ObjGrant]
	recalls   slab.Slab[Recall]
}

// FitAccesses empties q's access vectors with room for n accesses: its
// own arrays when they hold n, else blocks of the pool's, taken once at
// that length. A record the fault layer dropped is never handed back, so
// the one made in its place starts with no arrays; filling it by append
// would grow each vector through every length below n.
func (p *Pool) FitAccesses(q *ObjRequest, n int) {
	q.Objs, q.Modes, q.Nums = p.objs.Fit(q.Objs, n), p.modes.Fit(q.Modes, n), p.nums.Fit(q.Nums, n)
}

// FitGrants empties m's grants with room for n, as FitAccesses does a
// request's vectors.
func (p *Pool) FitGrants(m *GrantMsg, n int) { m.Grants = p.grants.Fit(m.Grants, n) }

// FitRecalls empties m's recalls with room for n, as FitAccesses does a
// request's vectors.
func (p *Pool) FitRecalls(m *RecallMsg, n int) { m.Recalls = p.recalls.Fit(m.Recalls, n) }

// CopyLocations returns a record of the pool's holding a copy of from.
// Its vectors — the objects, their holders, the loads and the counts —
// are sized once, as FitAccesses sizes a request's, before they are
// filled: an answer is assembled in its builder's scratch and sent, or
// kept, as such a copy.
func (p *Pool) CopyLocations(from *Locations) *Locations {
	holders := 0
	for _, o := range from.Objs {
		holders += len(o.Holders)
	}
	r := p.Locations.New()
	r.Txn = from.Txn
	r.Objs, r.Flat = p.conflicts.Fit(r.Objs, len(from.Objs)), p.sites.Fit(r.Flat, holders)
	for _, o := range from.Objs {
		r.Objs, r.Flat = AppendLocation(r.Objs, r.Flat, o.Obj, o.Holders)
	}
	r.Loads = append(p.loads.Fit(r.Loads, len(from.Loads)), from.Loads...)
	r.DataCounts = append(p.counts.Fit(r.DataCounts, len(from.DataCounts)), from.DataCounts...)
	return r
}

// Release resets a delivered payload record and hands it back to its
// slab. Call it exactly once per delivered frame, after the handler has
// returned, and never for a frame marked Shared (the fault layer
// delivered it twice; the record stays in its chunk, unused).
//
// Every slice keeps its backing array for the next sender to fill —
// handlers only read them in place, and copy out what must outlive the
// call: ObjRequest's access vectors, GrantMsg.Grants, RecallMsg.Recalls,
// and the location, load and count vectors of Locations with the flat
// holder array behind them — a record that carried one element keeps its
// one-element array. A final return's spent forward list goes back to
// Lists.
func (p *Pool) Release(payload any) {
	switch r := payload.(type) {
	case *ObjRequest:
		*r = ObjRequest{Objs: r.Objs[:0], Modes: r.Modes[:0], Nums: r.Nums[:0]}
		p.ObjRequest.Keep(r)
	case *GrantMsg:
		clear(r.Grants) // drop the forward-list pointers
		r.Grants = r.Grants[:0]
		p.GrantMsg.Keep(r)
	case *Locations:
		*r = Locations{Objs: r.Objs[:0], Loads: r.Loads[:0], DataCounts: r.DataCounts[:0], Flat: r.Flat[:0]}
		p.Locations.Keep(r)
	case *DenyReply:
		p.DenyReply.Put(r)
	case *RecallMsg:
		r.Recalls = r.Recalls[:0]
		p.RecallMsg.Keep(r)
	case *ReplicaInstall:
		p.ReplicaInstall.Put(r)
	case *ObjReturn:
		if r.Fwd != nil {
			p.Lists.Put(r.Fwd)
		}
		p.ObjReturn.Put(r)
	case *TxnShip:
		p.TxnShip.Put(r)
	case *TxnResult:
		p.TxnResult.Put(r)
	default:
		panic(fmt.Sprintf("proto: Release of unpooled payload %T", payload))
	}
}
