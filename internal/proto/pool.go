package proto

import "fmt"

// FreeList recycles the records of one payload type.
type FreeList[T any] struct {
	free []*T
}

// Get returns a zeroed record (slice fields empty, their capacity kept
// where Release keeps it), from the free list when it holds one.
func (f *FreeList[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		return new(T)
	}
	x := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return x
}

func (f *FreeList[T]) put(x *T) { f.free = append(f.free, x) }

// putZeroed is put for payloads that keep nothing across reuse.
func (f *FreeList[T]) putZeroed(x *T) {
	var zero T
	*x = zero
	f.put(x)
}

// Pool is one cluster's stock of payload records, a free list per
// payload type. A payload travels as a pointer to a record the sender
// took with Get and filled in place; the dispatch loop that receives
// the frame hands the record back with Release once its handler has
// returned, unless the frame is marked netsim.Message.Shared. Handlers
// therefore take payloads by value or must not keep the pointer.
//
// The pool belongs to the cluster it serves — the system constructor
// makes one and hands it to every client and server, as it does the
// config and the network — and is never package-level state: the
// experiment runner drives many clusters on many goroutines, a cluster
// is single-threaded, and a finished cluster's records must die with
// it. The lists grow to the peak number of frames in flight and no
// further; the zero Pool is ready to use.
type Pool struct {
	ProbeRequest   FreeList[ProbeRequest]
	CommitRequest  FreeList[CommitRequest]
	GrantMsg       FreeList[GrantMsg]
	ConflictReply  FreeList[ConflictReply]
	DenyReply      FreeList[DenyReply]
	RecallMsg      FreeList[RecallMsg]
	ReplicaInstall FreeList[ReplicaInstall]
	ObjReturn      FreeList[ObjReturn]
	LoadQuery      FreeList[LoadQuery]
	LoadReply      FreeList[LoadReply]
	TxnShip        FreeList[TxnShip]
	TxnResult      FreeList[TxnResult]
	TxnSubmit      FreeList[TxnSubmit]
	UserResult     FreeList[UserResult]
}

// Release zeroes a delivered payload record and returns it to its free
// list. Call it exactly once per delivered frame, after the handler has
// returned, and never for a frame marked Shared (the fault layer
// delivered it twice; both copies fall to the collector).
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
		p.ProbeRequest.put(r)
	case *CommitRequest:
		*r = CommitRequest{Objs: r.Objs[:0], Modes: r.Modes[:0]}
		p.CommitRequest.put(r)
	case *GrantMsg:
		clear(r.Grants) // drop the forward-list pointers
		r.Grants = r.Grants[:0]
		p.GrantMsg.put(r)
	case *ConflictReply:
		*r = ConflictReply{Conflicts: r.Conflicts[:0], Loads: r.Loads[:0], DataCounts: r.DataCounts[:0], Flat: r.Flat[:0]}
		p.ConflictReply.put(r)
	case *DenyReply:
		p.DenyReply.putZeroed(r)
	case *RecallMsg:
		r.Recalls = r.Recalls[:0]
		p.RecallMsg.put(r)
	case *ReplicaInstall:
		p.ReplicaInstall.putZeroed(r)
	case *ObjReturn:
		*r = ObjReturn{RetainedSL: r.RetainedSL[:0]}
		p.ObjReturn.put(r)
	case *LoadQuery:
		*r = LoadQuery{Objs: r.Objs[:0], Modes: r.Modes[:0]}
		p.LoadQuery.put(r)
	case *LoadReply:
		*r = LoadReply{Locations: r.Locations[:0], Loads: r.Loads[:0], Flat: r.Flat[:0]}
		p.LoadReply.put(r)
	case *TxnShip:
		p.TxnShip.putZeroed(r)
	case *TxnResult:
		p.TxnResult.putZeroed(r)
	case *TxnSubmit:
		p.TxnSubmit.putZeroed(r)
	case *UserResult:
		p.UserResult.putZeroed(r)
	default:
		panic(fmt.Sprintf("proto: Release of unpooled payload %T", payload))
	}
}
