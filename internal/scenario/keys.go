package scenario

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"

	"siteselect/internal/config"
)

// key is one Config knob: the block of a scenario it is written in,
// its name, what its value must be (the diagnostic's "wants …"), and
// the setter that stores a value of that shape, reporting false for any
// other.
type key struct {
	block, name, wants string
	set                func(*config.Config, Value) bool
}

// keys declares every key of the config, faults and replication blocks
// once, in documentation order. The compiler and Set both write a
// Config through it alone. Names are unique across blocks
// (TestKeyNamesUnique), so Set finds a key by name.
var keys = []key{
	// clients is Set's alone: its block is no stanza's, since a
	// scenario's population is its clients stanzas.
	field("", "clients", intVal, func(c *config.Config) *int { return &c.NumClients }),
	field("config", "duration", durVal, func(c *config.Config) *time.Duration { return &c.Duration }),
	field("config", "warmup", durVal, func(c *config.Config) *time.Duration { return &c.Warmup }),
	field("config", "drain", durVal, func(c *config.Config) *time.Duration { return &c.Drain }),
	field("config", "db", intVal, func(c *config.Config) *int { return &c.DBSize }),
	field("config", "server-memory", intVal, func(c *config.Config) *int { return &c.ServerMemory }),
	field("config", "client-memory", intVal, func(c *config.Config) *int { return &c.ClientMemory }),
	field("config", "client-disk", intVal, func(c *config.Config) *int { return &c.ClientDisk }),
	field("config", "interarrival", durVal, func(c *config.Config) *time.Duration { return &c.MeanInterArrival }),
	field("config", "length", durVal, func(c *config.Config) *time.Duration { return &c.MeanLength }),
	field("config", "slack", durVal, func(c *config.Config) *time.Duration { return &c.MeanSlack }),
	field("config", "objects", intVal, func(c *config.Config) *int { return &c.MeanObjects }),
	field("config", "updates", numVal, func(c *config.Config) *float64 { return &c.UpdateFraction }),
	field("config", "decomposable", numVal, func(c *config.Config) *float64 { return &c.DecomposableFraction }),
	field("config", "pattern", oneOf("uniform, localized-rw, or hot-cold", config.PatternUniform, config.PatternLocalizedRW, config.PatternHotCold),
		func(c *config.Config) *config.AccessPattern { return &c.Pattern }),
	field("config", "hot-size", intVal, func(c *config.Config) *int { return &c.HotRegionSize }),
	field("config", "local-fraction", numVal, func(c *config.Config) *float64 { return &c.LocalFraction }),
	field("config", "zipf-theta", numVal, func(c *config.Config) *float64 { return &c.ZipfTheta }),
	field("config", "scheduling", oneOf("edf or fcfs", config.SchedEDF, config.SchedFCFS),
		func(c *config.Config) *config.SchedPolicy { return &c.Scheduling }),
	field("config", "deadlines", oneOf("slack or independent", config.DeadlineLengthPlusSlack, config.DeadlineIndependent),
		func(c *config.Config) *config.DeadlinePolicy { return &c.Deadlines }),
	field("config", "threads", intVal, func(c *config.Config) *int { return &c.ServerThreads }),
	field("config", "executors", intVal, func(c *config.Config) *int { return &c.ClientExecutors }),
	field("config", "net-latency", durVal, func(c *config.Config) *time.Duration { return &c.NetLatency }),
	field("config", "net-bandwidth", numVal, func(c *config.Config) *float64 { return &c.NetBandwidthBps }),
	field("config", "topology", oneOf("shared-bus or switched", config.TopologySharedBus, config.TopologySwitched),
		func(c *config.Config) *config.NetTopology { return &c.Topology }),
	field("config", "disk-read", durVal, func(c *config.Config) *time.Duration { return &c.DiskRead }),
	field("config", "disk-write", durVal, func(c *config.Config) *time.Duration { return &c.DiskWrite }),
	field("config", "server-op-cpu", durVal, func(c *config.Config) *time.Duration { return &c.ServerOpCPU }),
	field("config", "collection-window", durVal, func(c *config.Config) *time.Duration { return &c.CollectionWindow }),
	field("config", "batch-window", durVal, func(c *config.Config) *time.Duration { return &c.BatchWindow }),
	field("config", "max-subtasks", intVal, func(c *config.Config) *int { return &c.MaxSubtasks }),
	field("config", "retry-timeout", durVal, func(c *config.Config) *time.Duration { return &c.RetryTimeout }),
	field("config", "servers", intVal, func(c *config.Config) *int { return &c.Sharding.Servers }),
	field("config", "shard-block", intVal, func(c *config.Config) *int { return &c.Sharding.Block }),
	field("config", "trace", boolVal, func(c *config.Config) *bool { return &c.Trace }),
	field("config", "invariants", boolVal, func(c *config.Config) *bool { return &c.CheckInvariants }),
	field("config", "logging", boolVal, func(c *config.Config) *bool { return &c.UseLogging }),
	field("config", "write-through", boolVal, func(c *config.Config) *bool { return &c.WriteThrough }),
	field("config", "speculation", boolVal, func(c *config.Config) *bool { return &c.UseSpeculation }),
	field("config", "h1", boolVal, func(c *config.Config) *bool { return &c.UseH1 }),
	field("config", "h2", boolVal, func(c *config.Config) *bool { return &c.UseH2 }),
	field("config", "decomposition", boolVal, func(c *config.Config) *bool { return &c.UseDecomposition }),
	field("config", "forward-lists", boolVal, func(c *config.Config) *bool { return &c.UseForwardLists }),
	field("config", "downgrade", boolVal, func(c *config.Config) *bool { return &c.UseDowngrade }),

	field("faults", "drop", numVal, func(c *config.Config) *float64 { return &c.Faults.DropRate }),
	field("faults", "dup", numVal, func(c *config.Config) *float64 { return &c.Faults.DupRate }),
	field("faults", "spike-rate", numVal, func(c *config.Config) *float64 { return &c.Faults.SpikeRate }),
	field("faults", "spike-latency", durVal, func(c *config.Config) *time.Duration { return &c.Faults.SpikeLatency }),
	field("faults", "partition-site", intVal, func(c *config.Config) *int { return &c.Faults.PartitionSite }),
	field("faults", "partition-shard", intVal, func(c *config.Config) *int { return &c.Faults.PartitionShard }),
	field("faults", "partition-at", durVal, func(c *config.Config) *time.Duration { return &c.Faults.PartitionAt }),
	field("faults", "partition-duration", durVal, func(c *config.Config) *time.Duration { return &c.Faults.PartitionDuration }),

	field("replication", "hot", intVal, func(c *config.Config) *int { return &c.Sharding.ReplicateHot }),
	field("replication", "window", durVal, func(c *config.Config) *time.Duration { return &c.Sharding.HeatWindow }),
	field("replication", "shed-below", intVal, func(c *config.Config) *int { return &c.Sharding.ShedBelow }),
	// replica OBJ:SHARD pins a static placement and may repeat. The map
	// is copied before the write, so a Config copied from another never
	// changes the other's placements.
	{"replication", "replica", "OBJ:SHARD (two non-negative integers)", func(c *config.Config, v Value) bool {
		obj, shard, ok := splitReplica(v)
		if ok {
			m := maps.Clone(c.Sharding.Replicas)
			if m == nil {
				m = make(map[int]int)
			}
			m[obj] = shard
			c.Sharding.Replicas = m
		}
		return ok
	}},
}

// conv reads a value of one shape; wants names the shape in the
// diagnostic for any other ("duration wants a duration, got …").
type conv[T any] struct {
	wants string
	read  func(Value) (T, bool)
}

// The shapes a setting's value can take. A boolean is true / on or
// false / off.
var (
	durVal  = conv[time.Duration]{"a duration", Value.AsDuration}
	numVal  = conv[float64]{"a number", Value.AsFloat}
	intVal  = conv[int]{"an integer", func(v Value) (int, bool) { n, ok := v.AsInt(); return int(n), ok }}
	boolVal = conv[bool]{"true or false", oneOf("true, on, false, or off", true, true, false, false).read}
)

// oneOf reads one of the words wants lists ("a, b, or c") as the value
// at the word's position in vals.
func oneOf[T any](wants string, vals ...T) conv[T] {
	words := strings.Fields(strings.NewReplacer(",", "", " or ", " ").Replace(wants))
	return conv[T]{wants, func(v Value) (T, bool) {
		for i, w := range words {
			if v.Word == w {
				return vals[i], true
			}
		}
		var zero T
		return zero, false
	}}
}

// field makes a key whose value c reads into the Config field at
// returns.
func field[T any](block, name string, c conv[T], at func(*config.Config) *T) key {
	return key{block, name, c.wants, func(cfg *config.Config, v Value) bool {
		x, ok := c.read(v)
		if ok {
			*at(cfg) = x
		}
		return ok
	}}
}

// read converts one setting's value with c, or names the stanza, the
// key and what it wants.
func read[T any](s *Scenario, stanza string, set Setting, c conv[T]) (T, error) {
	x, ok := c.read(set.Val)
	if !ok {
		return x, s.errf(set.Line, stanza, "%s wants %s, got %q", set.Key, c.wants, set.Val)
	}
	return x, nil
}

// keyNamed returns the key called name, whatever its block.
func keyNamed(name string) (key, bool) {
	for _, k := range keys {
		if k.name == name {
			return k, true
		}
	}
	return key{}, false
}

// apply lowers one block's settings onto cfg, in file order.
func (s *Scenario) apply(cfg *config.Config, block string, b *Block) error {
	if b == nil {
		return nil
	}
	for _, set := range b.Settings {
		k, ok := keyNamed(set.Key)
		if !ok || k.block != block {
			return s.errf(set.Line, block, "unknown %s key %q", block, set.Key)
		}
		if !k.set(cfg, set.Val) {
			return s.errf(set.Line, block, "%s wants %s, got %q", set.Key, k.wants, set.Val)
		}
	}
	return nil
}

// Set writes "key=value" settings onto cfg in order, each as the line
// "key value" in that key's config, faults or replication block of a
// scenario would: the value is classified as a scenario's is, and the
// key names are the scenario's, plus clients (NumClients), which no
// block takes. Set stops at the first setting it refuses, and does not
// validate the whole Config.
func Set(cfg *config.Config, settings ...string) error {
	for _, kv := range settings {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("setting %q: want key=value", kv)
		}
		k, ok := keyNamed(name)
		if !ok {
			return fmt.Errorf("unknown key %q", name)
		}
		if v := parseValue(val); !k.set(cfg, v) {
			return fmt.Errorf("%s wants %s, got %q", name, k.wants, v)
		}
	}
	return nil
}

// splitReplica parses a "OBJ:SHARD" placement value.
func splitReplica(v Value) (obj, shard int, ok bool) {
	if v.Kind != ValWord {
		return 0, 0, false
	}
	a, b, found := strings.Cut(v.Word, ":")
	if !found {
		return 0, 0, false
	}
	o, err1 := strconv.Atoi(a)
	sh, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || o < 0 || sh < 0 {
		return 0, 0, false
	}
	return o, sh, true
}
