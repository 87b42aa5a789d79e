package config

import (
	"strings"
	"testing"
	"time"
)

// TestTopologyDefaults: the zero topology and an explicit single server
// are the same one-shard topology, whatever the partition and
// replication knobs say — there is no second path for either to select.
func TestTopologyDefaults(t *testing.T) {
	for _, topo := range []Topology{
		{},
		{Servers: 1},
		{Servers: 1, Block: 4, ReplicateHot: 3, HeatWindow: time.Minute},
	} {
		if got := topo.NumServers(); got != 1 {
			t.Fatalf("%+v: NumServers() = %d, want 1", topo, got)
		}
		if topo.Enabled() {
			t.Fatalf("%+v must not be Enabled", topo)
		}
		if topo.Adaptive() {
			t.Fatalf("%+v must not be Adaptive", topo)
		}
		for obj := 0; obj < 10; obj++ {
			if got := topo.Shard(obj); got != 0 {
				t.Fatalf("%+v: Shard(%d) = %d, want 0 on single server", topo, obj, got)
			}
		}
		if got := topo.EffectiveShedBelow(); got != 1 {
			t.Fatalf("%+v: EffectiveShedBelow() = %d, want 1", topo, got)
		}
	}
}

func TestTopologyPartition(t *testing.T) {
	topo := Topology{Servers: 4}
	counts := make(map[int]int)
	for obj := 0; obj < 400; obj++ {
		s := topo.Shard(obj)
		if s < 0 || s >= 4 {
			t.Fatalf("Shard(%d) = %d out of range", obj, s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n != 100 {
			t.Fatalf("shard %d owns %d objects, want 100 (even round-robin)", s, n)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	base := Default(10, 0.2)
	cases := []struct {
		name string
		topo Topology
		want string // substring of the error, "" = valid
	}{
		{"zero", Topology{}, ""},
		{"sharded", Topology{Servers: 4}, ""},
		{"adaptive", Topology{Servers: 2, ReplicateHot: 3, HeatWindow: time.Second}, ""},
		{"static", Topology{Servers: 2, Replicas: map[int]int{0: 1}}, ""},
		{"negative servers", Topology{Servers: -1}, "Servers"},
		{"hot without servers", Topology{ReplicateHot: 3, HeatWindow: time.Second}, "two servers"},
		{"hot without window", Topology{Servers: 2, ReplicateHot: 3}, "HeatWindow"},
		{"negative shed", Topology{Servers: 2, ShedBelow: -1}, "ShedBelow"},
		{"replica out of range", Topology{Servers: 2, Replicas: map[int]int{0: 2}}, "shard 2"},
		{"replica on home", Topology{Servers: 2, Replicas: map[int]int{1: 1}}, "home shard"},
		{"replica object bad", Topology{Servers: 2, Replicas: map[int]int{-1: 1}}, "object"},
		{"replica on one server", Topology{Replicas: map[int]int{0: 1}}, "requires at least two servers"},
		{"replica on servers 1", Topology{Servers: 1, Replicas: map[int]int{3: 0}}, "requires at least two servers"},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Sharding = tc.topo
		err := cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestPartitionShardValidate(t *testing.T) {
	cfg := Default(10, 0.2)
	cfg.Faults.PartitionShard = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("PartitionShard 1 with a single server must be rejected")
	}
	cfg.Sharding.Servers = 2
	if err := cfg.Validate(); err != nil {
		t.Fatalf("PartitionShard 1 with two servers: unexpected error %v", err)
	}
}

// TestReplicaErrorDeterministic: with several bad placements the error
// names the lowest object, on every call, whatever order the map
// iterates in.
func TestReplicaErrorDeterministic(t *testing.T) {
	cfg := Default(10, 0.2)
	cfg.Sharding = Topology{Servers: 2, Replicas: map[int]int{7: 5, 3: 1, 9: 9, 5: 4}}
	want := "config: Sharding.Replicas[3] places the replica on its home shard 1"
	for i := 0; i < 100; i++ {
		if err := cfg.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: error = %v, want %q", i, err, want)
		}
	}
}
