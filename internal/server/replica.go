package server

import (
	"siteselect/internal/batch"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/shardmap"
)

// Adaptive replication (topologies of two or more shards; a lone shard
// is every object's home and has nowhere to replicate to).
//
// A home shard counts shared-mode grants per object over the topology's
// HeatWindow; an object that crosses ReplicateHot gains a read replica
// on another shard. The replica registers in the home shard's lock
// table as a shared-mode pseudo-owner, so coherence needs no new
// machinery: a writer's firm request finds the pseudo-owner among the
// conflicting holders and the ordinary callback path recalls it — the
// replica shard withdraws its topology registration (new reads route
// home again), recalls its own client holders through the ordinary
// client recall path, and returns the object to the home shard once
// drained, which releases the pseudo-owner and lets the writer proceed.
// The replica's copy can never go stale while registered, because no
// exclusive lock can be granted at the home shard before that drain
// completes.
//
// Cold replicas shed themselves: each adaptive install schedules a
// HeatWindow heartbeat, and a window with fewer than ShedBelow reads
// starts a lame-duck drain — the topology registration is withdrawn so
// new reads route home, but existing client holders are NOT recalled
// (nobody is waiting on a cold shed, and a recall stampede would cost
// one recall/return round-trip per holder). The object goes home once
// the holders drain naturally; a writer arriving mid-drain upgrades it
// to a forced drain. Static placements (Topology.Replicas) get no
// heartbeat — only a writer removes them.

// replicaState is the lifecycle of the replica a shard serves for an
// object homed elsewhere, kept in the object's record (the diagram is
// in DESIGN.md, "Sharded topology"). Shared requests are served in
// every state but repNone.
type replicaState uint8

const (
	repNone replicaState = iota
	// repServing: installed and registered in the topology, so reads
	// route here.
	repServing
	// repDraining: a lame duck after a cold window — registration
	// withdrawn, the client holders left to release in their own time.
	repDraining
	// repForced: a writer waits at the home shard — every client holder
	// has been recalled, and a grant that races the drain is too. Either
	// drain ends in repNone when the last holder has released.
	repForced
)

// replicaOwnerBase anchors the pseudo-owner IDs under which replica
// shards register in a home shard's lock table. Shard k registers as
// replicaOwnerBase-k — far from MigrationOwner (-1) and from client
// owners (positive), so the existing pseudo-owner filters cannot
// confuse them.
const replicaOwnerBase lockmgr.OwnerID = -1000

// replicaOwner returns the lock-table pseudo-owner of shard k.
func replicaOwner(k int) lockmgr.OwnerID { return replicaOwnerBase - lockmgr.OwnerID(k) }

// isReplicaOwner reports whether o is a replica pseudo-owner.
func isReplicaOwner(o lockmgr.OwnerID) bool { return o <= replicaOwnerBase }

// ownerFor maps a network site to its lock-table owner: clients own
// under their site ID, replica shards under their pseudo-owner.
func ownerFor(site netsim.SiteID) lockmgr.OwnerID {
	if shardmap.IsShardSite(site) {
		return replicaOwner(shardmap.ShardIndex(site))
	}
	return lockmgr.OwnerID(site)
}

// siteFor is ownerFor's inverse: the network site a lock-table owner
// answers at.
func siteFor(o lockmgr.OwnerID) netsim.SiteID {
	if isReplicaOwner(o) {
		return shardmap.ShardSite(int(replicaOwnerBase - o))
	}
	return netsim.SiteID(o)
}

// servesObj reports whether this shard is authoritative for a request:
// the home shard always is; a replica shard only for shared-mode
// requests of objects it currently replicates.
func (s *Server) servesObj(obj lockmgr.ObjectID, mode lockmgr.Mode) bool {
	if s.topo.HomeShard(obj) == s.shard {
		return true
	}
	return mode == lockmgr.ModeShared && s.at(obj).replica != repNone
}

// routeFirm re-routes a firm request that reached a shard which cannot
// serve it authoritatively (the object's replica was recalled or shed
// after the client routed here) to the object's home shard.
func (s *Server) routeFirm(r batch.Request) (batch.Outcome, bool) {
	if s.servesObj(r.Obj, r.Mode) {
		return 0, false
	}
	s.RequestsForwarded++
	q := s.payloads.CommitRequest.New()
	q.Client, q.Txn, q.Deadline = r.Client, r.Txn, r.Deadline
	q.Objs, q.Modes = append(q.Objs, r.Obj), append(q.Modes, r.Mode)
	s.send(shardmap.ShardSite(s.topo.HomeShard(r.Obj)), netsim.KindObjectRequest, netsim.ControlBytes, q)
	return batch.OutForwarded, true
}

// noteServe observes one granted request. At the home shard it feeds
// the heat window that triggers
// adaptive replication; at a replica shard it feeds the cold-shed
// counter, and a grant that raced a forced drain is recalled
// immediately (a writer is waiting; a grant racing a lame-duck drain
// just joins the holders and drains naturally).
func (s *Server) noteServe(obj lockmgr.ObjectID, mode lockmgr.Mode, client netsim.SiteID) {
	if s.topo.HomeShard(obj) != s.shard {
		o := s.rec(obj)
		o.repHeat++
		if o.replica == repForced {
			s.recall(obj, client, false, 0)
		}
		return
	}
	if !s.adaptive || mode != lockmgr.ModeShared {
		return
	}
	o := s.rec(obj)
	if now := s.env.Now(); o.heatN == 0 || now-o.heatStart > s.cfg.Sharding.HeatWindow {
		o.heatStart, o.heatN = now, 0
	}
	o.heatN++
	if int(o.heatN) >= s.cfg.Sharding.ReplicateHot {
		s.maybeReplicate(obj)
	}
}

// maybeReplicate provisions a read replica of a hot object if the
// object is quiescent: no replica already out, no forward list forming
// or in flight, no queued writers, and no holder conflicting with a
// shared registration. A hot object that is not quiescent stays hot and
// is retried on its next access.
func (s *Server) maybeReplicate(obj lockmgr.ObjectID) {
	o := s.rec(obj)
	if o.replicaOut {
		return
	}
	if _, ok := s.topo.Replica(obj); ok {
		return
	}
	if o.inflight != nil || o.sealed != nil || s.open(obj) != nil {
		return
	}
	if s.locks.QueueLen(obj) > 0 {
		return
	}
	target := s.replicaTarget(obj)
	owner := replicaOwner(target)
	if len(s.locks.ConflictingHolders(obj, owner, lockmgr.ModeShared)) > 0 {
		return
	}
	lr := s.reqs.New()
	lr.Obj, lr.Owner = obj, owner
	lr.Mode, lr.Deadline = lockmgr.ModeShared, s.env.Now()
	if outcome, _ := s.locks.Lock(lr); outcome != lockmgr.Granted {
		panic("server: replica registration failed on quiescent object")
	}
	s.reqs.Put(lr)
	o.heatStart, o.heatN = 0, 0
	o.replicaOut = true
	s.ReplicasInstalled++
	in := s.payloads.ReplicaInstall.New()
	*in = proto.ReplicaInstall{Obj: obj, Version: s.versions[obj]}
	s.send(shardmap.ShardSite(target), netsim.KindObjectShip, netsim.ObjectBytes, in)
}

// replicaTarget picks the shard hosting obj's replica: the static
// placement map when it names one, otherwise the home shard's
// neighbour.
func (s *Server) replicaTarget(obj lockmgr.ObjectID) int {
	if k, ok := s.cfg.Sharding.Replicas[int(obj)]; ok && k != s.shard {
		return k
	}
	return (s.shard + 1) % s.topo.Servers()
}

// installReplica activates a replica shipped by the home shard: this
// shard now serves shared-mode requests for obj at version, and a
// heartbeat watches for the replica running cold.
func (s *Server) installReplica(obj lockmgr.ObjectID, version int64) {
	o := s.rec(obj)
	o.replica, o.repHeat = repServing, 0
	s.versions[obj] = version
	s.topo.SetReplica(obj, s.site)
	if o.beat == nil {
		o.beat = &heatBeat{s: s, obj: obj}
	}
	o.beat.arm()
}

// SeedReplica installs a static replica of obj on shard r before the
// run starts (Topology.Replicas). It reports false when the placement
// is inapplicable (wrong home, replica already out, or the object is
// not free for a shared registration). Static replicas get no cold
// heartbeat — only a writer's recall removes them.
func (s *Server) SeedReplica(obj lockmgr.ObjectID, r *Server) bool {
	if s.topo.HomeShard(obj) != s.shard || r.shard == s.shard || s.at(obj).replicaOut {
		return false
	}
	if _, ok := s.topo.Replica(obj); ok {
		return false
	}
	owner := replicaOwner(r.shard)
	if len(s.locks.ConflictingHolders(obj, owner, lockmgr.ModeShared)) > 0 {
		return false
	}
	if outcome, _ := s.locks.Lock(&lockmgr.Request{
		Obj: obj, Owner: owner, Mode: lockmgr.ModeShared, Deadline: s.env.Now(),
	}); outcome != lockmgr.Granted {
		return false
	}
	s.rec(obj).replicaOut = true
	s.ReplicasInstalled++
	r.rec(obj).replica = repServing
	r.versions[obj] = s.versions[obj]
	s.topo.SetReplica(obj, r.site)
	return true
}

// heatBeat is the HeatWindow heartbeat of the replica a shard serves for
// one object: one event hook, armed by every install and by every beat
// that finds the replica warm. Beats fire in the order they were armed,
// so only the last armed is current: one that fires with another pending
// was armed by an install a later one superseded, and is stale.
type heatBeat struct {
	s       *Server
	obj     lockmgr.ObjectID
	pending int32
}

func (h *heatBeat) arm() {
	h.pending++
	h.s.env.AtHook(h.s.env.Now()+h.s.cfg.Sharding.HeatWindow, h)
}

// RunEvent sheds a replica whose last window ran cold, or re-arms.
func (h *heatBeat) RunEvent() {
	s, o := h.s, h.s.rec(h.obj)
	if h.pending--; h.pending > 0 || o.replica != repServing {
		return
	}
	if int(o.repHeat) < s.cfg.Sharding.EffectiveShedBelow() {
		s.shedReplica(h.obj, false)
		return
	}
	o.repHeat = 0
	h.arm()
}

// shedReplica starts draining a replica back to its home shard: the
// topology registration is withdrawn first (new reads route home), and
// the object returns home once the last client holder releases. A
// forced drain (a writer is waiting at the home shard) recalls every
// holder; a cold, lame-duck shed lets them drain naturally.
func (s *Server) shedReplica(obj lockmgr.ObjectID, force bool) {
	o := s.rec(obj)
	switch o.replica {
	case repServing:
		o.replica = repDraining
		s.ReplicasShed++
		if site, ok := s.topo.Replica(obj); ok && site == s.site {
			s.topo.ClearReplica(obj)
		}
		if force {
			o.replica = repForced
			s.recallReplicaHolders(obj)
		}
		s.finishShedIfDrained(obj)
	case repDraining:
		if force {
			// A writer's recall caught a lame-duck drain in progress:
			// upgrade it so the writer is not stuck behind slow evictions.
			o.replica = repForced
			s.recallReplicaHolders(obj)
		}
	}
}

// recallReplicaHolders recalls every client holding the replica's
// object — the forced-drain path only.
func (s *Server) recallReplicaHolders(obj lockmgr.ObjectID) {
	for i, n := 0, s.locks.HolderCount(obj); i < n; i++ {
		if h, _ := s.locks.HolderAt(obj, i); h > 0 {
			s.recall(obj, netsim.SiteID(h), false, 0)
		}
	}
}

// finishShedIfDrained completes a drain once no client holds the
// replica any more: the replica state is dropped and the object is
// returned to its home shard, whose release of the pseudo-owner
// unblocks any waiting writer.
func (s *Server) finishShedIfDrained(obj lockmgr.ObjectID) {
	if r := s.at(obj).replica; r != repDraining && r != repForced {
		return
	}
	for i, n := 0, s.locks.HolderCount(obj); i < n; i++ {
		if h, _ := s.locks.HolderAt(obj, i); h > 0 {
			return
		}
	}
	o := s.rec(obj)
	o.replica, o.repHeat = repNone, 0
	ret := s.payloads.ObjReturn.New()
	ret.Client, ret.Obj = s.site, obj
	s.send(shardmap.ShardSite(s.topo.HomeShard(obj)), netsim.KindObjectReturn, netsim.ControlBytes, ret)
}
