package proto

import (
	"fmt"

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
	ProbeRequest   slab.Slab[ProbeRequest]
	CommitRequest  slab.Slab[CommitRequest]
	GrantMsg       slab.Slab[GrantMsg]
	ConflictReply  slab.Slab[ConflictReply]
	DenyReply      slab.Slab[DenyReply]
	RecallMsg      slab.Slab[RecallMsg]
	ReplicaInstall slab.Slab[ReplicaInstall]
	ObjReturn      slab.Slab[ObjReturn]
	LoadQuery      slab.Slab[LoadQuery]
	LoadReply      slab.Slab[LoadReply]
	TxnShip        slab.Slab[TxnShip]
	TxnResult      slab.Slab[TxnResult]
	TxnSubmit      slab.Slab[TxnSubmit]
	UserResult     slab.Slab[UserResult]
}

// Release resets a delivered payload record and hands it back to its
// slab. Call it exactly once per delivered frame, after the handler has
// returned, and never for a frame marked Shared (the fault layer
// delivered it twice; the record stays in its chunk, unused).
//
// Every slice keeps its backing array for the next sender to fill —
// handlers only read them in place, and copy out what must outlive the
// call: the access vectors of ProbeRequest, CommitRequest and LoadQuery,
// GrantMsg.Grants, RecallMsg.Recalls, ObjReturn.RetainedSL, and the
// location, load and count vectors of ConflictReply and LoadReply with
// the flat holder array behind them — a record that carried one element
// keeps its one-element array.
func (p *Pool) Release(payload any) {
	switch r := payload.(type) {
	case *ProbeRequest:
		*r = ProbeRequest{Objs: r.Objs[:0], Modes: r.Modes[:0]}
		p.ProbeRequest.Keep(r)
	case *CommitRequest:
		*r = CommitRequest{Objs: r.Objs[:0], Modes: r.Modes[:0]}
		p.CommitRequest.Keep(r)
	case *GrantMsg:
		clear(r.Grants) // drop the forward-list pointers
		r.Grants = r.Grants[:0]
		p.GrantMsg.Keep(r)
	case *ConflictReply:
		*r = ConflictReply{Conflicts: r.Conflicts[:0], Loads: r.Loads[:0], DataCounts: r.DataCounts[:0], Flat: r.Flat[:0]}
		p.ConflictReply.Keep(r)
	case *DenyReply:
		p.DenyReply.Put(r)
	case *RecallMsg:
		r.Recalls = r.Recalls[:0]
		p.RecallMsg.Keep(r)
	case *ReplicaInstall:
		p.ReplicaInstall.Put(r)
	case *ObjReturn:
		*r = ObjReturn{RetainedSL: r.RetainedSL[:0]}
		p.ObjReturn.Keep(r)
	case *LoadQuery:
		*r = LoadQuery{Objs: r.Objs[:0], Modes: r.Modes[:0]}
		p.LoadQuery.Keep(r)
	case *LoadReply:
		*r = LoadReply{Locations: r.Locations[:0], Loads: r.Loads[:0], Flat: r.Flat[:0]}
		p.LoadReply.Keep(r)
	case *TxnShip:
		p.TxnShip.Put(r)
	case *TxnResult:
		p.TxnResult.Put(r)
	case *TxnSubmit:
		p.TxnSubmit.Put(r)
	case *UserResult:
		p.UserResult.Put(r)
	default:
		panic(fmt.Sprintf("proto: Release of unpooled payload %T", payload))
	}
}
