package shardmap

import (
	"testing"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
)

func TestShardSites(t *testing.T) {
	if ShardSite(0) != netsim.ServerSite {
		t.Fatalf("ShardSite(0) = %d, want ServerSite", ShardSite(0))
	}
	for k := 0; k < 5; k++ {
		s := ShardSite(k)
		if !IsShardSite(s) {
			t.Fatalf("IsShardSite(%d) = false for shard %d", s, k)
		}
		if got := ShardIndex(s); got != k {
			t.Fatalf("ShardIndex(ShardSite(%d)) = %d", k, got)
		}
	}
	if IsShardSite(1) {
		t.Fatal("client site 1 must not be a shard site")
	}
}

// TestSingleShardRouting: no servers key and "servers 1" build the same
// map, and it routes everything to netsim.ServerSite. The scenario
// goldens pinned before the sharding layer existed are what proves the
// routing inert (scenario.TestCorpusGoldens).
func TestSingleShardRouting(t *testing.T) {
	for _, topo := range []config.Topology{{}, {Servers: 1}, {Servers: 1, Block: 4}} {
		m := New(topo)
		if m.Servers() != 1 || m.Multi() {
			t.Fatalf("%+v: Servers=%d Multi=%v", topo, m.Servers(), m.Multi())
		}
		for obj := lockmgr.ObjectID(0); obj < 20; obj++ {
			if m.HomeShard(obj) != 0 || m.HomeSite(obj) != netsim.ServerSite {
				t.Fatalf("%+v: object %d is home at shard %d, site %d; want shard 0 at ServerSite",
					topo, obj, m.HomeShard(obj), m.HomeSite(obj))
			}
			for _, shared := range []bool{true, false} {
				if m.RouteSite(obj, shared) != netsim.ServerSite {
					t.Fatalf("%+v: RouteSite(%d, %v) shifted off the single server", topo, obj, shared)
				}
			}
		}
	}
}

func TestReplicaRouting(t *testing.T) {
	m := New(config.Topology{Servers: 4})
	obj := lockmgr.ObjectID(5)
	home := m.HomeSite(obj)
	if home != ShardSite(1) {
		t.Fatalf("HomeSite(5) = %d, want shard 1 (5 mod 4)", home)
	}
	if got := m.RouteSite(obj, true); got != home {
		t.Fatalf("RouteSite without replica = %d, want home %d", got, home)
	}
	m.SetReplica(obj, ShardSite(3))
	if got := m.RouteSite(obj, true); got != ShardSite(3) {
		t.Fatalf("shared RouteSite with replica = %d, want shard 3", got)
	}
	if got := m.RouteSite(obj, false); got != home {
		t.Fatalf("exclusive RouteSite must ignore the replica, got %d", got)
	}
	if n := m.ReplicaCount(); n != 1 {
		t.Fatalf("ReplicaCount = %d, want 1", n)
	}
	m.ClearReplica(obj)
	if got := m.RouteSite(obj, true); got != home {
		t.Fatalf("RouteSite after ClearReplica = %d, want home %d", got, home)
	}
}
