package config

import (
	"fmt"
	"time"
)

// Topology describes the server tier: how many server shards partition
// the object space, the object→shard partition function, and how read
// replicas are provisioned — statically via a placement map, or
// adaptively from observed access heat on the simulated clock.
//
// The zero value is the paper's topology: one server owning the whole
// database, no replicas. It is not a separate mode: clients and servers
// run the same routing code at any M, and at M = 1 the map sends
// everything to shard 0 (the scenario goldens pinned before the
// sharding layer existed still reproduce byte for byte).
type Topology struct {
	// Servers is the number of server shards (M). Zero and one both mean
	// the single-server topology.
	Servers int

	// Block is the block-cyclic partition width: objects are assigned to
	// shards in contiguous runs of Block ids ((obj/Block) mod M). Zero
	// and one both mean plain round-robin, which spreads any contiguous
	// access range evenly; larger blocks keep neighboring objects
	// together, so a compact hot set lands on few shards — the imbalance
	// adaptive replication is there to fix.
	Block int

	// ReplicateHot is the number of shared-mode accesses within one
	// HeatWindow that makes an object hot enough to gain a read replica
	// on another shard. Zero disables adaptive replication.
	ReplicateHot int
	// HeatWindow is the sliding window, on the simulated clock, over
	// which access heat is counted (both for gaining a replica at the
	// home shard and for shedding a cold one at the replica shard).
	HeatWindow time.Duration
	// ShedBelow is the heat below which a replica shard sheds its copy
	// at the end of a HeatWindow. Zero selects 1 (shed only when the
	// window saw no reads at all).
	ShedBelow int

	// Replicas is the static replica placement map (object → replica
	// shard), installed before the run starts. Unlike adaptive replicas,
	// static ones are never shed for coldness (a writer still recalls
	// them through the ordinary coherence path). Nil means no static
	// placement.
	Replicas map[int]int
}

// NumServers returns the effective shard count (at least 1).
func (t Topology) NumServers() int {
	if t.Servers < 1 {
		return 1
	}
	return t.Servers
}

// Enabled reports whether the multi-server topology is active.
func (t Topology) Enabled() bool { return t.NumServers() > 1 }

// Shard is the object→shard partition function: block-cyclic with
// width Block — plain round-robin at the default width 1, so every
// contiguous access range touches all shards evenly.
func (t Topology) Shard(obj int) int {
	m := t.NumServers()
	if m == 1 {
		return 0
	}
	if t.Block > 1 {
		return (obj / t.Block) % m
	}
	return obj % m
}

// Adaptive reports whether heat-driven replica provision is on.
func (t Topology) Adaptive() bool { return t.ReplicateHot > 0 && t.Enabled() }

// EffectiveShedBelow returns the shed threshold with its default.
func (t Topology) EffectiveShedBelow() int {
	if t.ShedBelow < 1 {
		return 1
	}
	return t.ShedBelow
}

// validate reports the first invalid topology parameter. dbSize bounds
// the static placement map.
func (t Topology) validate(dbSize int) error {
	switch {
	case t.Servers < 0:
		return fmt.Errorf("config: Sharding.Servers %d must be non-negative", t.Servers)
	case t.Block < 0:
		return fmt.Errorf("config: Sharding.Block %d must be non-negative", t.Block)
	case t.ReplicateHot < 0:
		return fmt.Errorf("config: Sharding.ReplicateHot %d must be non-negative", t.ReplicateHot)
	case t.ReplicateHot > 0 && t.NumServers() == 1:
		return fmt.Errorf("config: Sharding.ReplicateHot requires at least two servers")
	case t.ReplicateHot > 0 && t.HeatWindow <= 0:
		return fmt.Errorf("config: Sharding.HeatWindow must be positive when ReplicateHot is set")
	case t.ShedBelow < 0:
		return fmt.Errorf("config: Sharding.ShedBelow %d must be non-negative", t.ShedBelow)
	}
	for obj, shard := range t.Replicas {
		switch {
		case obj < 0 || obj >= dbSize:
			return fmt.Errorf("config: Sharding.Replicas object %d out of [0,%d)", obj, dbSize)
		case shard < 0 || shard >= t.NumServers():
			return fmt.Errorf("config: Sharding.Replicas[%d] shard %d out of [0,%d)", obj, shard, t.NumServers())
		case shard == t.Shard(obj):
			return fmt.Errorf("config: Sharding.Replicas[%d] places the replica on its home shard %d", obj, shard)
		case t.NumServers() == 1:
			return fmt.Errorf("config: Sharding.Replicas requires at least two servers")
		}
	}
	return nil
}
