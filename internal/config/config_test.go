package config

import (
	"math"
	"testing"
	"time"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default(20, 0.05)
	if c.DBSize != 10000 {
		t.Errorf("DBSize = %d, want 10000", c.DBSize)
	}
	if c.ServerMemory != 1000 {
		t.Errorf("CS server memory = %d, want 1000", c.ServerMemory)
	}
	if c.ClientMemory != 500 || c.ClientDisk != 500 {
		t.Errorf("client caches = %d/%d, want 500/500", c.ClientMemory, c.ClientDisk)
	}
	if c.MeanInterArrival != 10*time.Second {
		t.Errorf("inter-arrival = %v, want 10s", c.MeanInterArrival)
	}
	if c.MeanLength != 10*time.Second {
		t.Errorf("length = %v, want 10s", c.MeanLength)
	}
	if c.MeanSlack != 20*time.Second {
		t.Errorf("deadline offset = %v, want 20s", c.MeanSlack)
	}
	if c.MeanObjects != 10 {
		t.Errorf("objects/txn = %d, want 10", c.MeanObjects)
	}
	if c.UpdateFraction != 0.05 {
		t.Errorf("updates = %v", c.UpdateFraction)
	}
	if c.DecomposableFraction != 0.10 {
		t.Errorf("decomposable = %v, want 0.10", c.DecomposableFraction)
	}
	if c.LocalFraction != 0.75 {
		t.Errorf("locality = %v, want 0.75", c.LocalFraction)
	}
	if c.NetBandwidthBps != 10e6 {
		t.Errorf("bandwidth = %v, want 10 Mbps", c.NetBandwidthBps)
	}
	if c.ServerThreads != 100 {
		t.Errorf("threads = %d, want 100", c.ServerThreads)
	}
	if !c.UseH1 || !c.UseH2 || !c.UseDecomposition || !c.UseForwardLists || !c.UseDowngrade {
		t.Error("LS features should default on")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCentralized(t *testing.T) {
	c := DefaultCentralized(20, 0.05)
	if c.ServerMemory != 5000 {
		t.Fatalf("CE server memory = %d, want 5000", c.ServerMemory)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.NumClients = 0 },
		func(c *Config) { c.DBSize = -1 },
		func(c *Config) { c.ServerMemory = 0 },
		func(c *Config) { c.ClientMemory = 0 },
		func(c *Config) { c.ClientDisk = -1 },
		func(c *Config) { c.MeanInterArrival = 0 },
		func(c *Config) { c.MeanLength = 0 },
		func(c *Config) { c.MeanSlack = 0 },
		func(c *Config) { c.MeanObjects = 0 },
		func(c *Config) { c.UpdateFraction = 1.5 },
		func(c *Config) { c.DecomposableFraction = -0.1 },
		func(c *Config) { c.HotRegionSize = 0 },
		func(c *Config) { c.HotRegionSize = c.DBSize + 1 },
		func(c *Config) { c.LocalFraction = 2 },
		func(c *Config) { c.ServerThreads = 0 },
		func(c *Config) { c.ClientExecutors = 0 },
		func(c *Config) { c.CollectionWindow = -time.Second },
		func(c *Config) { c.BatchWindow = -time.Millisecond },
		func(c *Config) { c.BatchWindow = 24 * time.Hour }, // absurd: >= MeanSlack
		func(c *Config) { c.BatchWindow = c.MeanSlack },    // window may never eat the whole slack budget
		func(c *Config) { c.MaxSubtasks = 1 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Drain = -time.Second },
		func(c *Config) { c.Warmup = c.Duration },
		func(c *Config) { c.ZipfTheta = 0 },
		func(c *Config) { c.NetLatency = -time.Second }, // would deliver before the send
		func(c *Config) { c.NetBandwidthBps = 0 },       // netsim would run it at 10 Mbps
		func(c *Config) { c.NetBandwidthBps = math.NaN() },
		func(c *Config) { c.DiskRead = -time.Millisecond }, // a negative device time is not a free device
		func(c *Config) { c.DiskWrite = -time.Millisecond },
		func(c *Config) { c.ServerOpCPU = -time.Millisecond },
		func(c *Config) { c.OutageClient, c.OutageDuration, c.OutageAt = 1, time.Minute, -time.Second },
	}
	for i, corrupt := range cases {
		c := Default(10, 0.05)
		corrupt(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: corrupted config passed validation", i)
		}
	}
}

// A zero device time is legal: the device is free and nothing queues
// for it (sim.HoldOp's zero-time rule).
func TestValidateZeroDeviceTimes(t *testing.T) {
	c := Default(10, 0.05)
	c.NetLatency, c.DiskRead, c.DiskWrite, c.ServerOpCPU = 0, 0, 0, 0
	if err := c.Validate(); err != nil {
		t.Errorf("zero device times rejected: %v", err)
	}
}

func TestValidateBatchWindow(t *testing.T) {
	// Any window strictly inside (0, MeanSlack) is valid, including one
	// just under the slack bound.
	for _, w := range []time.Duration{time.Millisecond, 250 * time.Millisecond} {
		c := Default(10, 0.05)
		c.BatchWindow = w
		if err := c.Validate(); err != nil {
			t.Errorf("window %v rejected: %v", w, err)
		}
	}
	c := Default(10, 0.05)
	c.BatchWindow = c.MeanSlack - time.Nanosecond
	if err := c.Validate(); err != nil {
		t.Errorf("window just under MeanSlack rejected: %v", err)
	}
}

func TestScale(t *testing.T) {
	c := Default(10, 0.05)
	s := c.Scale(0.5)
	if s.Duration != c.Duration/2 {
		t.Fatalf("duration = %v", s.Duration)
	}
	if s.Warmup != c.Warmup/2 {
		t.Fatalf("warmup = %v", s.Warmup)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Out-of-range factors are ignored.
	if got := c.Scale(0); got.Duration != c.Duration {
		t.Fatal("factor 0 should be ignored")
	}
	if got := c.Scale(2); got.Duration != c.Duration {
		t.Fatal("factor 2 should be ignored")
	}
	// Extreme scaling keeps Warmup < Duration.
	tiny := c.Scale(0.001)
	if err := tiny.Validate(); err != nil {
		t.Fatalf("tiny scale invalid: %v", err)
	}
}

func TestEnumStrings(t *testing.T) {
	if AccessLocalized.String() != "localized-rw" ||
		AccessUniform.String() != "uniform" ||
		AccessHotCold.String() != "hot-cold" {
		t.Fatal("pattern names wrong")
	}
	if AccessKind(9).String() == "" {
		t.Fatal("unknown pattern should still print")
	}
	if TopologySharedBus.String() != "shared-bus" || TopologySwitched.String() != "switched" {
		t.Fatal("topology names wrong")
	}
	if NetTopology(9).String() == "" {
		t.Fatal("unknown topology should still print")
	}
}

func TestValidateNewPolicies(t *testing.T) {
	for _, corrupt := range []func(*Config){
		func(c *Config) { c.Deadlines = DeadlinePolicy(9) },
		func(c *Config) { c.Scheduling = SchedPolicy(9) },
		func(c *Config) { c.Topology = NetTopology(9) },
		func(c *Config) { c.OutageClient = -1 },
		func(c *Config) { c.OutageClient = c.NumClients + 1 },
		func(c *Config) { c.OutageClient = 1 /* no duration */ },
	} {
		c := Default(10, 0.05)
		corrupt(&c)
		if err := c.Validate(); err == nil {
			t.Error("corrupted policy config passed validation")
		}
	}
	// Valid outage config passes.
	c := Default(10, 0.05)
	c.OutageClient = 2
	c.OutageDuration = time.Minute
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
