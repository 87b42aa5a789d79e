package client

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/txn"
)

// probeRound registers a tentative probe for objects 10 and 11 on a
// hand-driven machine and returns it with the probe sent.
func probeRound(r *rig) *txnMachine {
	c := r.cl
	tx := &txn.Transaction{ID: 301, Deadline: time.Hour}
	m := &txnMachine{c: c, t: tx, missing: []txn.Op{{Obj: 10}, {Obj: 11, Write: true}}, sendKind: skProbe}
	m.openPending()
	for _, op := range m.missing {
		m.pt.addWait(op.Obj, op.Mode(), 0)
		c.addWaiter(op.Obj, &m.pt)
	}
	m.resend(0)
	return m
}

// probed drains shard k's connection queue and returns the object lists
// of the probes it received.
func (r *rig) probed(k int) [][]lockmgr.ObjectID {
	r.env.RunAll()
	var out [][]lockmgr.ObjectID
	for {
		msg, ok := r.shards[k].TryGet()
		if !ok {
			return out
		}
		out = append(out, slices.Clone(msg.Payload.(*proto.ProbeRequest).Objs))
	}
}

// TestRetransmittedProbeByTopology pins the one rule that differs by
// shard count. Once object 10 has been granted, a retransmitted probe
// at one server still lists both missing accesses (the server re-ships
// what it granted); at two shards it asks only shard 1, the one that
// has not served its slice.
func TestRetransmittedProbeByTopology(t *testing.T) {
	type sent = [][]lockmgr.ObjectID
	for _, c := range []struct {
		servers      int
		first, again []sent // per shard
	}{
		{1, []sent{{{10, 11}}}, []sent{{{10, 11}}}},
		{2, []sent{{{10}}, {{11}}}, []sent{nil, {{11}}}},
	} {
		r := newRig(t, func(cfg *config.Config) { cfg.Sharding.Servers = c.servers })
		m := probeRound(r)
		for k, want := range c.first {
			if got := r.probed(k); !reflect.DeepEqual(got, want) {
				t.Errorf("%d servers: first probe to shard %d lists %v, want %v", c.servers, k, got, want)
			}
		}
		m.pt.removeWait(m.pt.findWait(10)) // shard 0 granted its slice
		m.resend(1)
		for k, want := range c.again {
			if got := r.probed(k); !reflect.DeepEqual(got, want) {
				t.Errorf("%d servers: retransmitted probe to shard %d lists %v, want %v", c.servers, k, got, want)
			}
		}
		r.env.Close()
	}
}

// TestConflictRepliesMergeInShardOrder: the answers of a split probe
// read the same whichever shard answers first — locations concatenated
// in shard order, a site's first load report in shard order, data
// counts summed — and a lone answer is read where the pending record
// keeps it, not copied a second time.
func TestConflictRepliesMergeInShardOrder(t *testing.T) {
	replies := []*proto.ConflictReply{
		{Txn: 301,
			Conflicts:  []proto.ObjConflict{{Obj: 10, Holders: []netsim.SiteID{2}}},
			Loads:      []proto.LoadReport{{Client: 2, QueueLen: 1, Valid: true}},
			DataCounts: []proto.SiteCount{{Site: 2, Count: 1}}},
		{Txn: 301,
			Conflicts:  []proto.ObjConflict{{Obj: 11, Holders: []netsim.SiteID{2, 3}}},
			Loads:      []proto.LoadReport{{Client: 2, QueueLen: 9, Valid: true}, {Client: 3, Valid: true}},
			DataCounts: []proto.SiteCount{{Site: 2, Count: 2}, {Site: 3, Count: 1}}},
	}
	type view struct {
		conflicts []proto.ObjConflict
		loads     map[netsim.SiteID]proto.LoadReport
		counts    map[netsim.SiteID]int
	}
	var m *txnMachine
	read := func(order ...int) view {
		r := newRig(t, func(cfg *config.Config) { cfg.Sharding.Servers = 2 })
		defer r.env.Close()
		m = probeRound(r)
		for _, k := range order {
			// A record of its own, as the server sends: the client's
			// dispatcher hands it to the pool, arrays and all.
			cp := &proto.ConflictReply{Txn: replies[k].Txn,
				Loads: slices.Clone(replies[k].Loads), DataCounts: slices.Clone(replies[k].DataCounts)}
			for _, c := range replies[k].Conflicts {
				cp.Conflicts, cp.Flat = proto.AppendLocation(cp.Conflicts, cp.Flat, c.Obj, c.Holders)
			}
			r.injectFrom(k, netsim.KindLockReply, cp)
			r.env.RunAll()
		}
		if !m.pt.gotConflict {
			t.Fatal("conflict reply not recorded")
		}
		conflicts, loads, counts := r.cl.h2Inputs(m.pt.confFrom)
		return view{conflicts, maps.Clone(loads), maps.Clone(counts)}
	}
	inOrder := read(0, 1)
	for _, order := range [][]int{{1, 0}, {1, 0, 1}} { // reversed; shard 1 answering a retransmission too
		if got := read(order...); !reflect.DeepEqual(got, inOrder) {
			t.Fatalf("merge depends on arrival order:\n 0,1: %+v\n %v: %+v", inOrder, order, got)
		}
	}
	want := view{
		conflicts: append(slices.Clone(replies[0].Conflicts), replies[1].Conflicts...),
		loads:     map[netsim.SiteID]proto.LoadReport{2: replies[0].Loads[0], 3: replies[1].Loads[1]},
		counts:    map[netsim.SiteID]int{2: 3, 3: 1},
	}
	if !reflect.DeepEqual(inOrder, want) {
		t.Fatalf("merged view = %+v\nwant %+v", inOrder, want)
	}
	if lone := read(1); &lone.conflicts[0] != &m.pt.confFrom[0].rec.Conflicts[0] {
		t.Fatal("a lone reply's conflicts were copied again, want the kept copy's vector")
	}
}
