package proto

import (
	"reflect"
	"testing"
	"time"

	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// filled returns one record of every payload type with every field set
// to something other than its zero value, taken from p.
func filled(p *Pool) []any {
	load := LoadReport{Client: 3, QueueLen: 2, ATL: time.Second, Valid: true}
	objs := []lockmgr.ObjectID{4, 5, 6}
	modes := []lockmgr.Mode{lockmgr.ModeShared, lockmgr.ModeExclusive, lockmgr.ModeShared}
	t := &txn.Transaction{ID: 9}

	rq := p.ObjRequest.New()
	rq.Op, rq.Client, rq.Txn, rq.Deadline, rq.Returned, rq.Load = OpCommit, 1, 9, time.Minute, 4, load
	rq.Objs, rq.Modes, rq.Nums = append(rq.Objs, objs...), append(rq.Modes, modes...), append(rq.Nums, 1, 2, 3)
	gm := p.GrantMsg.New()
	gm.Grants = append(gm.Grants,
		ObjGrant{Obj: 4, Mode: lockmgr.ModeExclusive, Version: 7, Num: 2, Fwd: forward.NewList(4)},
		ObjGrant{Obj: 5, Mode: lockmgr.ModeShared, Version: 1})
	lc := p.Locations.New()
	lc.Txn, lc.Loads, lc.DataCounts = 9, append(lc.Loads, load), append(lc.DataCounts, SiteCount{Site: 2, Count: 1})
	lc.Objs, lc.Flat = AppendLocation(lc.Objs, lc.Flat, 4, []netsim.SiteID{2, 3})
	dr := p.DenyReply.New()
	*dr = DenyReply{Txn: 9, Reason: DenyExpired}
	rm := p.RecallMsg.New()
	rm.Recalls = append(rm.Recalls, Recall{Obj: 4, DowngradeToShared: true, HolderMode: lockmgr.ModeExclusive}, Recall{Obj: 5})
	ri := p.ReplicaInstall.New()
	*ri = ReplicaInstall{Obj: 4, Version: 7}
	rt := p.ObjReturn.New()
	*rt = ObjReturn{Client: 1, Obj: 4, HasData: true, Version: 7, Downgraded: true,
		UpdateOnly: true, Migration: true, RunComplete: true, Fwd: p.Lists.New(4), Num: 2, Load: load}
	ts := p.TxnShip.New()
	*ts = TxnShip{T: t, Sub: &txn.Subtask{Index: 1}}
	tr := p.TxnResult.New()
	*tr = TxnResult{T: t, SubIndex: 1, IsSub: true, Committed: true}
	return []any{rq, gm, lc, dr, rm, ri, rt, ts, tr}
}

// keepsCapacity names the slice fields Release leaves their backing
// array; every other field of every payload must come back zero.
var keepsCapacity = map[string]bool{
	"ObjRequest.Objs": true, "ObjRequest.Modes": true, "ObjRequest.Nums": true,
	"GrantMsg.Grants": true, "RecallMsg.Recalls": true,
	"Locations.Objs": true, "Locations.Loads": true,
	"Locations.DataCounts": true, "Locations.Flat": true,
}

func TestFilledCoversEveryPoolList(t *testing.T) {
	var p Pool
	// Every exported field but Lists, the stock of the lists payloads
	// carry (the unexported ones hold the blocks of their vectors).
	want := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(p)) {
		if f.IsExported() && f.Name != "Lists" {
			want++
		}
	}
	if got := len(filled(&p)); got != want {
		t.Fatalf("filled makes %d payload types, Pool has %d slabs", got, want)
	}
}

// TestReleaseZeroesAndKeepsCapacity: per payload type, take → fill →
// release → take returns the same record, every field zero, with the
// capacity of every slice kept.
func TestReleaseZeroesAndKeepsCapacity(t *testing.T) {
	var p Pool
	for _, rec := range filled(&p) {
		v := reflect.ValueOf(rec).Elem()
		name := v.Type().Name()
		// Every field must be set, or the zero check below proves nothing.
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s left zero by the test's fill", name, v.Type().Field(i).Name)
			}
		}
		caps := map[string]int{}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				caps[v.Type().Field(i).Name] = f.Cap()
			}
		}
		p.Release(rec)
		again := reflect.ValueOf(takeLike(&p, rec))
		if again.Pointer() != reflect.ValueOf(rec).Pointer() {
			t.Errorf("%s: New after Release made a new record", name)
		}
		for i := 0; i < v.NumField(); i++ {
			f, fname := again.Elem().Field(i), v.Type().Field(i).Name
			if keepsCapacity[name+"."+fname] {
				if f.Len() != 0 || f.Cap() != caps[fname] || f.Cap() == 0 {
					t.Errorf("%s.%s after reuse: len %d cap %d, want len 0 cap %d",
						name, fname, f.Len(), f.Cap(), caps[fname])
				}
				// Grants carry forward-list pointers: the kept array must
				// not keep a finished migration's list alive.
				if full := f.Slice(0, f.Cap()); name == "GrantMsg" && !full.IsZero() {
					for j := 0; j < full.Len(); j++ {
						if !full.Index(j).IsZero() {
							t.Errorf("GrantMsg.Grants[%d] keeps %+v", j, full.Index(j))
						}
					}
				}
				continue
			}
			if !f.IsZero() {
				t.Errorf("%s.%s = %v after reuse, want zero", name, fname, f)
			}
		}
	}
}

// takeLike takes a record of rec's type from p.
func takeLike(p *Pool, rec any) any {
	list := reflect.ValueOf(p).Elem().FieldByName(reflect.TypeOf(rec).Elem().Name())
	return list.Addr().MethodByName("New").Call(nil)[0].Interface()
}

// TestReplyHolderListsAreWindows: a reply's holder lists are windows of
// the record's one flat array — across the array's growth, and again
// when the released record is refilled by the next sender, whose lists
// take the previous reply's place.
func TestReplyHolderListsAreWindows(t *testing.T) {
	var p Pool
	lc := p.Locations.New()
	for obj := lockmgr.ObjectID(0); obj < 20; obj++ { // the flat array regrows on the way
		lc.Objs, lc.Flat = AppendLocation(lc.Objs, lc.Flat, obj, []netsim.SiteID{netsim.SiteID(obj), netsim.SiteID(obj + 100)})
	}
	for i, c := range lc.Objs {
		if want := []netsim.SiteID{netsim.SiteID(i), netsim.SiteID(i + 100)}; c.Obj != lockmgr.ObjectID(i) || !reflect.DeepEqual(c.Holders, want) {
			t.Fatalf("conflict %d = %+v, want holders %v", i, c, want)
		}
	}
	p.Release(lc)
	next := p.Locations.New()
	next.Objs, next.Flat = AppendLocation(next.Objs, next.Flat, 7, []netsim.SiteID{3})
	next.Objs, next.Flat = AppendLocation(next.Objs, next.Flat, 8, []netsim.SiteID{4, 5})
	if next != lc || len(next.Objs) != 2 || &next.Objs[1].Holders[0] != &next.Flat[1] || next.Objs[1].Holders[1] != 5 {
		t.Fatalf("refilled reply = %+v over %v", next.Objs, next.Flat)
	}
	other := p.Locations.New()
	other.Objs, other.Flat = AppendLocation(other.Objs, other.Flat, 4, []netsim.SiteID{2})
	other.Objs, other.Flat = AppendLocation(other.Objs, other.Flat, 5, nil)
	if len(other.Objs) != 2 || other.Objs[0].Holders[0] != 2 || len(other.Objs[1].Holders) != 0 {
		t.Fatalf("location reply = %+v", other.Objs)
	}
}

// TestOneElementRecordsAreReused: a lone grant, a lone callback and a
// sequential fetch are the batch of one — the released record comes back
// with its one-element arrays kept and no forward-list pointer left in
// them, and a larger batch may then grow it.
func TestOneElementRecordsAreReused(t *testing.T) {
	var p Pool
	gm := p.GrantMsg.New()
	gm.Grants = append(gm.Grants, ObjGrant{Obj: 4, Mode: lockmgr.ModeExclusive, Fwd: forward.NewList(4)})
	elem := &gm.Grants[0]
	p.Release(gm)
	if again := p.GrantMsg.New(); again != gm || len(again.Grants) != 0 || cap(again.Grants) == 0 {
		t.Fatalf("one-grant record not reused with its array: same %v, len %d cap %d", again == gm, len(again.Grants), cap(again.Grants))
	}
	if *elem != (ObjGrant{}) {
		t.Fatalf("released one-grant record keeps %+v", *elem)
	}
	gm.Grants = append(gm.Grants, ObjGrant{Obj: 5})
	if &gm.Grants[0] != elem {
		t.Fatal("refilling a one-grant record moved its element array")
	}

	rm := p.RecallMsg.New()
	rm.Recalls = append(rm.Recalls, Recall{Obj: 4, DowngradeToShared: true})
	first := &rm.Recalls[0]
	p.Release(rm)
	if again := p.RecallMsg.New(); again != rm || len(again.Recalls) != 0 {
		t.Fatalf("one-recall record not reused: same %v, len %d", again == rm, len(again.Recalls))
	}
	rm.Recalls = append(rm.Recalls, Recall{Obj: 6})
	if &rm.Recalls[0] != first || rm.Recalls[0] != (Recall{Obj: 6}) {
		t.Fatalf("refilled one-recall record: moved %v, element %+v", &rm.Recalls[0] != first, rm.Recalls[0])
	}

	cr := p.ObjRequest.New()
	cr.Op, cr.Client, cr.Txn = OpCommit, 1, 9
	cr.Objs, cr.Modes = append(cr.Objs, 4), append(cr.Modes, lockmgr.ModeShared)
	cr.Nums = append(cr.Nums, 1)
	obj := &cr.Objs[0]
	p.Release(cr)
	again := p.ObjRequest.New()
	if again != cr || again.Op != 0 || again.Client != 0 || again.Txn != 0 || len(again.Objs) != 0 || len(again.Modes) != 0 {
		t.Fatalf("one-access request after reuse: same %v, %+v", again == cr, *again)
	}
	again.Objs = append(again.Objs, 7)
	if &again.Objs[0] != obj {
		t.Fatal("refilling a one-access request moved its access vector")
	}
}

func TestReleaseOfUnpooledPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a payload passed by value did not panic")
		}
	}()
	new(Pool).Release(Recall{Obj: 1})
}

// freeListPointers returns every pointer the free list of every slab
// of p holds, the list stock's included.
func freeListPointers(p *Pool) []uintptr {
	var out []uintptr
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		s := v.Field(i)
		if v.Type().Field(i).Name == "Lists" {
			s = s.FieldByName("lists")
		}
		free := s.FieldByName("free")
		for j := 0; j < free.Len(); j++ {
			out = append(out, free.Index(j).Pointer())
		}
	}
	return out
}

// TestDuplicatedFramesAreNeverRecycled drives every payload type over a
// network that duplicates every frame, into a receiver that follows the
// dispatch loops' rule (release unless Shared): both copies arrive
// intact and marked, so neither is released; a clean network afterwards
// returns each record exactly once — the free lists never hold one
// pointer twice.
func TestDuplicatedFramesAreNeverRecycled(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	net := netsim.New(env, netsim.DefaultConfig())
	net.SetFaults(netsim.FaultConfig{Seed: 1, DupRate: 1, Horizon: time.Second})
	mb := sim.NewMailbox[netsim.Message](env)
	var p Pool

	recs := filled(&p)
	want := make([]any, len(recs)) // deep copies of what was sent
	for i, rec := range recs {
		cp := reflect.New(reflect.TypeOf(rec).Elem())
		cp.Elem().Set(reflect.ValueOf(rec).Elem())
		want[i] = cp.Interface()
		// An unreliable kind, so the duplicate lottery applies.
		net.Send(netsim.Message{Kind: netsim.KindLockReply, From: 0, To: 1, Payload: rec}, mb)
	}
	env.RunAll()
	seen := map[any]int{}
	for {
		msg, ok := mb.TryGet()
		if !ok {
			break
		}
		if !msg.Shared {
			t.Fatalf("duplicated frame carrying %T not marked Shared", msg.Payload)
		}
		seen[msg.Payload]++
	}
	for i, rec := range recs {
		if seen[rec] != 2 {
			t.Errorf("%T delivered %d times at dup 1.0, want 2", rec, seen[rec])
		}
		if !reflect.DeepEqual(rec, want[i]) {
			t.Errorf("%T changed between send and the second delivery:\n got %+v\nwant %+v", rec, rec, want[i])
		}
	}
	if n := net.Faults().Duplicated; n != int64(len(recs)) {
		t.Fatalf("Duplicated = %d, want %d", n, len(recs))
	}
	if ptrs := freeListPointers(&p); len(ptrs) != 0 {
		t.Fatalf("free lists hold %d records after duplicated deliveries, want none", len(ptrs))
	}

	// Past the fault horizon the same records travel clean and are
	// released exactly once each.
	env.Run(2 * time.Second)
	for _, rec := range recs {
		net.Send(netsim.Message{Kind: netsim.KindLockReply, From: 0, To: 1, Payload: rec}, mb)
	}
	env.RunAll()
	for {
		msg, ok := mb.TryGet()
		if !ok {
			break
		}
		if msg.Shared {
			t.Fatalf("clean frame carrying %T marked Shared", msg.Payload)
		}
		p.Release(msg.Payload)
	}
	// One more: the forward list the return carried home.
	ptrs := freeListPointers(&p)
	if len(ptrs) != len(recs)+1 {
		t.Fatalf("free lists hold %d records, want %d", len(ptrs), len(recs)+1)
	}
	held := map[uintptr]bool{}
	for _, ptr := range ptrs {
		if held[ptr] {
			t.Fatalf("free lists hold record %#x twice", ptr)
		}
		held[ptr] = true
	}
}

// TestPoolSteadyStateAllocatesNothing pins take → fill → release of the
// benchmark's hottest payloads at zero allocations once warm.
func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	var p Pool
	round := func() {
		for _, rec := range filledHot(&p) {
			p.Release(rec)
		}
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("take/fill/release allocates %v per round, want 0", n)
	}
}

var hotScratch [4]any

func filledHot(p *Pool) []any {
	q := p.ObjRequest.New()
	q.Op, q.Client, q.Txn = OpCommit, 1, 9
	q.Objs, q.Modes = append(q.Objs, 4), append(q.Modes, lockmgr.ModeShared)
	q.Nums = append(q.Nums, 1)
	g := ObjGrant{Obj: 4, Mode: lockmgr.ModeShared}
	gm := p.GrantMsg.New()
	gm.Grants = append(gm.Grants, g, g, g)
	rm := p.RecallMsg.New()
	rm.Recalls = append(rm.Recalls, Recall{Obj: 4}, Recall{Obj: 5})
	rt := p.ObjReturn.New()
	rt.Client, rt.Obj, rt.Fwd = 1, 4, p.Lists.New(4)
	rt.Fwd.Retain(2)
	rt.Fwd.Retain(3)
	hotScratch = [4]any{q, gm, rm, rt}
	return hotScratch[:]
}

// BenchmarkPoolRound times take → fill → release of the four payloads a
// contended batched exchange sends most.
func BenchmarkPoolRound(b *testing.B) {
	var p Pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, rec := range filledHot(&p) {
			p.Release(rec)
		}
	}
}

// TestFreshRecordsSizeVectorsOnce: a record the fault layer dropped is
// never handed back, so the one made in its place starts with no arrays
// — and so does every record the pool has not yet had back, up to the
// peak in flight. FitAccesses, CopyLocations, FitGrants and FitRecalls
// carve its vectors from the pool's blocks at the length they are
// filled to, so a stream of fresh records costs the allocator a chunk
// now and then — not an array per vector and length, eight for a
// five-access request grown by append.
func TestFreshRecordsSizeVectorsOnce(t *testing.T) {
	var p Pool
	from := &Locations{
		Objs:       []ObjConflict{{Obj: 1, Holders: []netsim.SiteID{2, 3}}, {Obj: 4, Holders: []netsim.SiteID{5}}},
		Loads:      make([]LoadReport, 2),
		DataCounts: make([]SiteCount, 2),
	}
	fresh := func() {
		q := p.ObjRequest.New() // never handed back: its frame was dropped
		p.FitAccesses(q, 5)
		for i := range 5 {
			q.Objs, q.Modes, q.Nums = append(q.Objs, lockmgr.ObjectID(i)), append(q.Modes, lockmgr.ModeShared), append(q.Nums, int64(i))
		}
		if r := p.CopyLocations(from); len(r.Objs) != 2 || len(r.Flat) != 3 || r.Objs[1].Holders[0] != 5 {
			panic("CopyLocations lost the answer")
		}
		g := p.GrantMsg.New()
		p.FitGrants(g, 3)
		for i := range 3 {
			g.Grants = append(g.Grants, ObjGrant{Obj: lockmgr.ObjectID(i)})
		}
		m := p.RecallMsg.New()
		p.FitRecalls(m, 3)
		for i := range 3 {
			m.Recalls = append(m.Recalls, Recall{Obj: lockmgr.ObjectID(i)})
		}
	}
	if n := testing.AllocsPerRun(1000, fresh); n > 0.1 {
		t.Errorf("a fresh request, reply, grant and recall allocate %v per set, want at most 0.1 (chunks only)", n)
	}
}
