// Package shardmap is the shared runtime view of the server topology:
// which shard is an object's home, and where its read replica (if any)
// currently lives. One Map instance is shared by reference between the
// clients and every server shard of a cluster — the simulation is
// single-threaded, so shards publish replica registrations and clients
// observe them without any messaging, exactly like the shared peer
// mailbox table.
//
// Shard k occupies site ID -k: shard 0 keeps netsim.ServerSite (0), so
// a single-shard topology is bit-for-bit the paper's client/server
// model, and client sites (1..N) never collide with shard sites.
package shardmap

import (
	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
)

// ShardSite returns the network site ID of shard k.
func ShardSite(k int) netsim.SiteID { return netsim.SiteID(-k) }

// ShardIndex returns the shard index of a shard site ID.
func ShardIndex(s netsim.SiteID) int { return int(-s) }

// IsShardSite reports whether s addresses a server shard (clients are
// strictly positive).
func IsShardSite(s netsim.SiteID) bool { return s <= netsim.ServerSite }

// Map resolves objects to shards. The replica registry mutates during
// the run as shards gain and shed replicas.
type Map struct {
	topo    config.Topology
	servers int
	// replicas holds, by object id, one more than the index of the shard
	// serving the object's read replica: zero — or no element, the slice
	// reaches the highest id ever registered — where there is none.
	replicas []int32
	count    int
}

// New builds the runtime map for a topology.
func New(t config.Topology) *Map {
	return &Map{topo: t, servers: t.NumServers()}
}

// Servers returns the shard count M (at least 1).
func (m *Map) Servers() int { return m.servers }

// Multi reports whether more than one shard exists.
func (m *Map) Multi() bool { return m.servers > 1 }

// HomeShard returns the index of the shard owning obj.
func (m *Map) HomeShard(obj lockmgr.ObjectID) int {
	return m.topo.Shard(int(obj))
}

// HomeSite returns the site ID of the shard owning obj.
func (m *Map) HomeSite(obj lockmgr.ObjectID) netsim.SiteID {
	return ShardSite(m.HomeShard(obj))
}

// RouteSite returns where a client should send a request for obj:
// shared-mode requests are served by the object's active read replica
// when one is registered, everything else goes to the home shard.
func (m *Map) RouteSite(obj lockmgr.ObjectID, shared bool) netsim.SiteID {
	if shared {
		if s, ok := m.Replica(obj); ok {
			return s
		}
	}
	return m.HomeSite(obj)
}

// Replica returns the site of obj's active read replica, if registered.
func (m *Map) Replica(obj lockmgr.ObjectID) (netsim.SiteID, bool) {
	if int(obj) >= len(m.replicas) || m.replicas[obj] == 0 {
		return 0, false
	}
	return ShardSite(int(m.replicas[obj]) - 1), true
}

// SetReplica registers site as obj's read replica.
func (m *Map) SetReplica(obj lockmgr.ObjectID, site netsim.SiteID) {
	if grow := int(obj) + 1 - len(m.replicas); grow > 0 {
		m.replicas = append(m.replicas, make([]int32, grow)...)
	}
	if m.replicas[obj] == 0 {
		m.count++
	}
	m.replicas[obj] = int32(ShardIndex(site)) + 1
}

// ClearReplica withdraws obj's replica registration; subsequent reads
// route to the home shard again.
func (m *Map) ClearReplica(obj lockmgr.ObjectID) {
	if _, ok := m.Replica(obj); ok {
		m.replicas[obj] = 0
		m.count--
	}
}

// ReplicaCount returns how many objects currently have a registered
// replica.
func (m *Map) ReplicaCount() int { return m.count }
