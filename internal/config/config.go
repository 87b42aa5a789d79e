// Package config holds the experiment parameters: the paper's Table 1
// values plus the simulation-only knobs (device timings, collection
// window, run length) that substitute for the authors' physical testbed.
package config

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// NetTopology selects the interconnect model.
type NetTopology int

// Interconnect models.
const (
	// TopologySharedBus serializes all transmissions on one medium (the
	// paper's 10 Mbps Ethernet).
	TopologySharedBus NetTopology = iota + 1
	// TopologySwitched gives every message the full bandwidth (a
	// non-blocking switch); only latency and per-message transmission
	// time remain.
	TopologySwitched
)

// String names the topology.
func (t NetTopology) String() string {
	switch t {
	case TopologySharedBus:
		return "shared-bus"
	case TopologySwitched:
		return "switched"
	default:
		return fmt.Sprintf("NetTopology(%d)", int(t))
	}
}

// DeadlinePolicy selects how transaction deadlines are generated.
type DeadlinePolicy int

// Deadline policies.
const (
	// DeadlineLengthPlusSlack sets deadline = arrival + length +
	// exponential slack, so an unobstructed transaction always makes
	// its deadline and every miss is system-induced (the default; see
	// DESIGN.md).
	DeadlineLengthPlusSlack DeadlinePolicy = iota + 1
	// DeadlineIndependent sets deadline = arrival + exponential offset
	// independent of the execution length (the literal reading of
	// Table 1), which caps every system's success near
	// P(offset > length) regardless of load.
	DeadlineIndependent
)

// SchedPolicy selects the executor-queue discipline.
type SchedPolicy int

// Scheduling policies.
const (
	// SchedEDF serves earliest deadlines first (the paper's ED policy).
	SchedEDF SchedPolicy = iota + 1
	// SchedFCFS serves in arrival order — the baseline that shows what
	// deadline-aware scheduling buys.
	SchedFCFS
)

// Config parameterizes one simulated system.
type Config struct {
	// NumClients is the number of client sites.
	NumClients int
	// DBSize is the number of database objects (Table 1: 10,000).
	DBSize int

	// ServerMemory is the server buffer capacity in objects
	// (Table 1: 5,000 centralized; 1,000 client-server).
	ServerMemory int
	// ClientMemory and ClientDisk are the client cache tier capacities
	// (Table 1: 500 each).
	ClientMemory int
	ClientDisk   int

	// MeanInterArrival, MeanLength, MeanSlack are the per-client
	// workload timings (Table 1: 10 s Poisson, 10 s exponential, 20 s
	// exponential).
	MeanInterArrival time.Duration
	MeanLength       time.Duration
	MeanSlack        time.Duration
	// MeanObjects is the mean access-set size (Table 1: 10).
	MeanObjects int
	// UpdateFraction is the probability an access updates (Table 1:
	// 0.01 / 0.05 / 0.20).
	UpdateFraction float64
	// DecomposableFraction is the share of decomposable transactions
	// (Section 5.1: 10%).
	DecomposableFraction float64

	// Pattern selects the access generator every client class without
	// an access spec of its own draws from: AccessUniform,
	// AccessLocalized (the paper's Localized-RW; also what AccessDefault
	// means here) or AccessHotCold. AccessSkewed is a class's alone.
	Pattern AccessKind
	// Deadlines selects the deadline-generation policy.
	Deadlines DeadlinePolicy
	// Scheduling selects the executor-queue discipline.
	Scheduling SchedPolicy
	// HotRegionSize and LocalFraction shape Localized-RW (Section 5.1:
	// 75% of accesses to a region, rest Zipf) and the hot set of a
	// run-level AccessHotCold.
	HotRegionSize int
	LocalFraction float64
	ZipfTheta     float64

	// DiskRead and DiskWrite are per-page device times.
	DiskRead  time.Duration
	DiskWrite time.Duration
	// NetLatency and NetBandwidthBps model the LAN; Topology selects
	// shared-bus (default) or switched delivery.
	NetLatency      time.Duration
	NetBandwidthBps float64
	Topology        NetTopology

	// ServerOpCPU is the server CPU cost of one unit of low-level
	// database work: handling a client message in the client-server
	// systems, or accessing one object in the centralized system
	// (buffer management, lock tables, thread scheduling). Calibrated
	// at ~12 ms from the paper's Table 3, whose uncontended shared-lock
	// response time is 24 ms on the authors' hardware (CPU service plus
	// a server disk read plus the LAN). This single cost reproduces
	// both the centralized server's saturation as clients are added and
	// the growth of client-server object response times with client
	// count.
	ServerOpCPU time.Duration

	// ServerThreads caps concurrent transactions at the centralized
	// server (Section 5.1: up to one hundred).
	ServerThreads int
	// ClientExecutors caps concurrent local transactions per client.
	ClientExecutors int

	// CollectionWindow is the forward-list batching window (LS only).
	CollectionWindow time.Duration
	// BatchWindow is the server-side request batching window: incoming
	// firm requests accumulate for this long on the simulated clock,
	// then the server grants every mutually compatible lock in one pass
	// and coalesces the resulting ships and recalls per destination
	// into single messages. Commit-time log forces are widened by the
	// same window so concurrent committers share one disk write. Zero
	// (the default) disables batching entirely and is byte-identical to
	// a build without the batching layer. Must stay well under
	// MeanSlack — a window that eats the whole slack budget would deny
	// every transaction.
	BatchWindow time.Duration
	// MaxSubtasks caps decomposition fan-out.
	MaxSubtasks int

	// Load-sharing feature toggles (for the ablation experiments; all
	// true in the paper's LS-CS-RTDBS).
	UseH1            bool
	UseH2            bool
	UseDecomposition bool
	UseForwardLists  bool
	UseDowngrade     bool
	// UseLogging enables client-based write-ahead logging (the recovery
	// scheme of the framework the paper builds on, its reference [16]):
	// each committing update appends a log record and the commit forces
	// the log tail to the site's disk, with group commit batching
	// concurrent forces. Off by default — the paper does not charge
	// logging costs; the ablation quantifies them.
	UseLogging bool
	// WriteThrough makes clients push each committed update to the
	// server immediately instead of retaining dirty copies until a
	// callback (the paper's systems are write-back; this ablation
	// quantifies what that buys). The client keeps its exclusive lock.
	WriteThrough bool
	// UseSpeculation enables the speculative processing extension the
	// paper's conclusion names as future work: a transaction whose only
	// missing pieces are exclusive upgrades of shared copies it already
	// caches starts computing against those copies while the upgrades
	// are in flight, and keeps the overlapped work if the versions
	// validate on arrival. Off by default (not part of the paper's
	// evaluated system).
	UseSpeculation bool

	// Fault injection: client OutageClient (0 = none) is partitioned
	// from OutageAt for OutageDuration — it processes no messages and
	// restarts with a cold cache. Dirty (committed but unreturned)
	// updates survive only when UseLogging is on; otherwise they are
	// lost, which the LostUpdates counter reports. This models a client
	// reboot with (or without) the client-based recovery log.
	OutageClient   int
	OutageAt       time.Duration
	OutageDuration time.Duration

	// Faults configures deterministic network fault injection (message
	// drop, duplication, latency spikes, timed partitions). The zero
	// value disables it entirely, leaving the fault-free simulation
	// byte-identical to a build without the fault layer.
	Faults FaultSpec

	// Sharding describes the server tier topology: how many server
	// shards partition the object space and how read replicas are
	// provisioned (see Topology). The zero value is the paper's single
	// server, which leaves every simulation byte-identical to a build
	// without the sharding layer.
	Sharding Topology

	// RetryTimeout is the base client retransmission timeout for
	// request–reply messages, doubled on each successive retry of the
	// same request and always bounded by the transaction deadline. It
	// takes effect only when Faults.Enabled(); zero selects a default
	// derived from MeanSlack (see EffectiveRetryTimeout).
	RetryTimeout time.Duration

	// CheckInvariants attaches the continuous invariant monitor
	// (internal/invariant) to the run: lock-table consistency,
	// forward-list well-formedness, request conservation, and
	// no-committed-lost-updates are re-checked as the simulation
	// executes. Off by default; the test tier turns it on.
	CheckInvariants bool

	// Trace enables the per-transaction event tracer (internal/trace):
	// every transaction accumulates a typed event timeline and a slack
	// attribution splitting its lifetime into queue / lock-wait /
	// network / exec / retry / fanout components. Off by default; the
	// fault-free simulation with tracing off is byte-identical to a
	// build without the trace layer.
	Trace bool

	// Workload, when non-nil, replaces the flat Table 1 workload with a
	// declarative multi-class spec: heterogeneous client classes with
	// phased arrival processes and per-class access skew (the scenario
	// DSL compiles onto this). Nil preserves the original generators
	// byte for byte.
	Workload *WorkloadSpec

	// Duration is how long transaction generation runs; the simulation
	// then drains for Drain before results are read. Transactions
	// arriving before Warmup are executed but excluded from statistics
	// (caches start cold).
	Duration time.Duration
	Drain    time.Duration
	Warmup   time.Duration

	// Seed drives every random stream in the run.
	Seed int64
}

// Default returns the paper's Table 1 configuration for a client-server
// system with n clients and the given update fraction.
func Default(n int, updateFraction float64) Config {
	return Config{
		NumClients:           n,
		DBSize:               10000,
		ServerMemory:         1000,
		ClientMemory:         500,
		ClientDisk:           500,
		MeanInterArrival:     10 * time.Second,
		MeanLength:           10 * time.Second,
		MeanSlack:            20 * time.Second,
		MeanObjects:          10,
		UpdateFraction:       updateFraction,
		DecomposableFraction: 0.10,
		Pattern:              AccessLocalized,
		Deadlines:            DeadlineLengthPlusSlack,
		Scheduling:           SchedEDF,
		HotRegionSize:        500,
		LocalFraction:        0.75,
		ZipfTheta:            0.9,
		DiskRead:             12 * time.Millisecond,
		DiskWrite:            12 * time.Millisecond,
		NetLatency:           500 * time.Microsecond,
		NetBandwidthBps:      10e6,
		Topology:             TopologySharedBus,
		ServerOpCPU:          12 * time.Millisecond,
		ServerThreads:        100,
		ClientExecutors:      4,
		CollectionWindow:     500 * time.Millisecond,
		MaxSubtasks:          4,
		UseH1:                true,
		UseH2:                true,
		UseDecomposition:     true,
		UseForwardLists:      true,
		UseDowngrade:         true,
		Duration:             30 * time.Minute,
		Drain:                2 * time.Minute,
		Warmup:               10 * time.Minute,
		Seed:                 1,
	}
}

// DefaultCentralized returns the Table 1 configuration for the
// centralized system (larger server buffer; clients are terminals).
func DefaultCentralized(n int, updateFraction float64) Config {
	c := Default(n, updateFraction)
	c.ServerMemory = 5000
	return c
}

// Scale returns the population-tier configuration: the paper's protocol
// stack with hardware constants turned down to modern values (the 1999
// 12 ms server op on one CPU would saturate long before a large
// population could be observed) and loose deadlines, so a run measures
// the simulator's bookkeeping rather than overload behavior. Each
// client submits ~2 transactions over the horizon. It is what
// BenchmarkScaleSmoke/Scale100x run and what the footprint pin in
// internal/rtdbs builds; bench/workloads/scale_*.rts spell out the same
// constants.
func Scale(clients int) Config {
	return Config{
		NumClients:       clients,
		DBSize:           2 * clients,
		ServerMemory:     100_000,
		ClientMemory:     256,
		ClientDisk:       0,
		MeanInterArrival: 200 * time.Second,
		MeanLength:       time.Second,
		MeanSlack:        1000 * time.Second,
		MeanObjects:      4,
		UpdateFraction:   0.01,
		Pattern:          AccessLocalized,
		Deadlines:        DeadlineLengthPlusSlack,
		Scheduling:       SchedEDF,
		HotRegionSize:    200,
		LocalFraction:    0.9,
		ZipfTheta:        0.9,
		DiskRead:         20 * time.Microsecond,
		DiskWrite:        20 * time.Microsecond,
		NetLatency:       200 * time.Microsecond,
		NetBandwidthBps:  1e9,
		Topology:         TopologySwitched,
		ServerOpCPU:      5 * time.Microsecond,
		ServerThreads:    100,
		ClientExecutors:  2,
		MaxSubtasks:      2,
		Duration:         400 * time.Second,
		Drain:            60 * time.Second,
		Seed:             1,
	}
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	switch {
	case c.NumClients <= 0:
		return errors.New("config: NumClients must be positive")
	case c.DBSize <= 0:
		return errors.New("config: DBSize must be positive")
	case c.DBSize > math.MaxInt32:
		// A shard and a buffer pool index their objects with int32.
		return fmt.Errorf("config: DBSize %d above %d", c.DBSize, math.MaxInt32)
	case c.ServerMemory <= 0:
		return errors.New("config: ServerMemory must be positive")
	case c.ClientMemory <= 0:
		return errors.New("config: ClientMemory must be positive")
	case c.ClientDisk < 0:
		return errors.New("config: ClientDisk must be non-negative")
	case c.MeanInterArrival <= 0:
		return errors.New("config: MeanInterArrival must be positive")
	case c.MeanLength <= 0:
		return errors.New("config: MeanLength must be positive")
	case c.MeanSlack <= 0:
		return errors.New("config: MeanSlack must be positive")
	case c.MeanObjects <= 0:
		return errors.New("config: MeanObjects must be positive")
	case c.UpdateFraction < 0 || c.UpdateFraction > 1:
		return fmt.Errorf("config: UpdateFraction %v out of [0,1]", c.UpdateFraction)
	case c.DecomposableFraction < 0 || c.DecomposableFraction > 1:
		return fmt.Errorf("config: DecomposableFraction %v out of [0,1]", c.DecomposableFraction)
	case c.Pattern < AccessDefault || c.Pattern > AccessHotCold:
		return fmt.Errorf("config: access pattern %v is not a run-level one", c.Pattern)
	case c.Deadlines < 0 || c.Deadlines > DeadlineIndependent:
		return fmt.Errorf("config: unknown deadline policy %d", int(c.Deadlines))
	case c.Scheduling < 0 || c.Scheduling > SchedFCFS:
		return fmt.Errorf("config: unknown scheduling policy %d", int(c.Scheduling))
	case c.Topology < 0 || c.Topology > TopologySwitched:
		return fmt.Errorf("config: unknown topology %d", int(c.Topology))
	case c.NetLatency < 0:
		return errors.New("config: NetLatency must be non-negative")
	case !(c.NetBandwidthBps > 0):
		return fmt.Errorf("config: NetBandwidthBps %v must be positive", c.NetBandwidthBps)
	case c.DiskRead < 0 || c.DiskWrite < 0:
		return errors.New("config: DiskRead and DiskWrite must be non-negative")
	case c.ServerOpCPU < 0:
		return errors.New("config: ServerOpCPU must be non-negative")
	case c.HotRegionSize <= 0 || c.HotRegionSize > c.DBSize:
		return fmt.Errorf("config: HotRegionSize %d out of (0,%d]", c.HotRegionSize, c.DBSize)
	case c.LocalFraction < 0 || c.LocalFraction > 1:
		return fmt.Errorf("config: LocalFraction %v out of [0,1]", c.LocalFraction)
	case c.ServerThreads <= 0:
		return errors.New("config: ServerThreads must be positive")
	case c.ClientExecutors <= 0:
		return errors.New("config: ClientExecutors must be positive")
	case c.CollectionWindow < 0:
		return errors.New("config: CollectionWindow must be non-negative")
	case c.BatchWindow < 0:
		return errors.New("config: BatchWindow must be non-negative")
	case c.BatchWindow > 0 && c.BatchWindow >= c.MeanSlack:
		return fmt.Errorf("config: BatchWindow %v must stay below MeanSlack %v", c.BatchWindow, c.MeanSlack)
	case c.MaxSubtasks < 2:
		return errors.New("config: MaxSubtasks must be at least 2")
	case c.Duration <= 0:
		return errors.New("config: Duration must be positive")
	case c.Drain < 0:
		return errors.New("config: Drain must be non-negative")
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("config: Warmup %v out of [0, Duration)", c.Warmup)
	case c.OutageClient < 0 || c.OutageClient > c.NumClients:
		return fmt.Errorf("config: OutageClient %d out of [0,%d]", c.OutageClient, c.NumClients)
	case c.OutageClient > 0 && c.OutageDuration <= 0:
		return errors.New("config: OutageDuration must be positive when OutageClient is set")
	case c.Faults.DropRate < 0 || c.Faults.DropRate > 1:
		return fmt.Errorf("config: Faults.DropRate %v out of [0,1]", c.Faults.DropRate)
	case c.Faults.DupRate < 0 || c.Faults.DupRate > 1:
		return fmt.Errorf("config: Faults.DupRate %v out of [0,1]", c.Faults.DupRate)
	case c.Faults.SpikeRate < 0 || c.Faults.SpikeRate > 1:
		return fmt.Errorf("config: Faults.SpikeRate %v out of [0,1]", c.Faults.SpikeRate)
	case c.Faults.SpikeRate > 0 && c.Faults.SpikeLatency <= 0:
		return errors.New("config: Faults.SpikeLatency must be positive when SpikeRate is set")
	case c.Faults.PartitionSite < 0 || c.Faults.PartitionSite > c.NumClients:
		return fmt.Errorf("config: Faults.PartitionSite %d out of [0,%d]", c.Faults.PartitionSite, c.NumClients)
	case c.Faults.PartitionDuration < 0:
		return errors.New("config: Faults.PartitionDuration must be non-negative")
	case c.RetryTimeout < 0:
		return errors.New("config: RetryTimeout must be non-negative")
	case c.Faults.PartitionShard < 0 || c.Faults.PartitionShard >= c.Sharding.NumServers():
		return fmt.Errorf("config: Faults.PartitionShard %d out of [0,%d)", c.Faults.PartitionShard, c.Sharding.NumServers())
	case c.ZipfTheta <= 0:
		return fmt.Errorf("config: ZipfTheta %v must be positive", c.ZipfTheta)
	case c.OutageAt < 0:
		return fmt.Errorf("config: OutageAt %v must be non-negative", c.OutageAt)
	}
	if err := c.Sharding.validate(c.DBSize); err != nil {
		return err
	}
	if c.Workload != nil {
		return c.validateWorkload()
	}
	return nil
}

// FaultSpec parameterizes the deterministic network fault layer. Rates
// are per-message probabilities evaluated at send time from a dedicated
// seed-derived stream, so the same Config produces the same fault
// sequence on every run regardless of worker count.
type FaultSpec struct {
	// DropRate drops a message in transit (the sender never learns).
	DropRate float64
	// DupRate delivers an extra copy of a message one latency later.
	// Reliable (sequence-numbered) kinds are exempt: their modeled
	// dedup layer discards duplicates before the application sees them.
	DupRate float64
	// SpikeRate delays a message by an extra SpikeLatency.
	SpikeRate    float64
	SpikeLatency time.Duration
	// PartitionSite (0 = the server, 1..N = that client; use
	// PartitionDuration = 0 for "no partition") is cut off the LAN from
	// PartitionAt for PartitionDuration: every message to or from it
	// during the window is lost in transit. Unlike OutageClient the
	// site keeps running and keeps its cache — this is a network
	// partition, not a crash.
	PartitionSite     int
	PartitionAt       time.Duration
	PartitionDuration time.Duration
	// PartitionShard (0 = none; 1..M-1 = that server shard) cuts a
	// server shard off the LAN over the same [PartitionAt,
	// PartitionAt+PartitionDuration) window. Shard 0 is addressed by
	// PartitionSite = 0, matching the single-server grammar.
	PartitionShard int
}

// Enabled reports whether any fault is configured.
func (f FaultSpec) Enabled() bool {
	return f.DropRate > 0 || f.DupRate > 0 || f.SpikeRate > 0 || f.PartitionDuration > 0
}

// DefaultRetryTimeout is the floor of the base request retransmission
// timeout used when faults are enabled and Config.RetryTimeout is zero.
const DefaultRetryTimeout = 250 * time.Millisecond

// EffectiveRetryTimeout returns the retransmission timeout the protocol
// should use: zero (retries off, preserving fault-free behavior bit for
// bit) unless faults are enabled, then RetryTimeout or a default derived
// from the deadline slack. The default must sit well above genuine
// response times — a retry exists to recover a lost message, and firing
// it during an ordinary lock wait duplicates object ships and, under
// load, snowballs into a congestion collapse — so it defaults to a
// quarter of the mean slack (a dropped message still leaves most of the
// slack to finish in), floored at DefaultRetryTimeout for configurations
// with unusually tight slack.
func (c Config) EffectiveRetryTimeout() time.Duration {
	if !c.Faults.Enabled() {
		return 0
	}
	if c.RetryTimeout > 0 {
		return c.RetryTimeout
	}
	if rto := c.MeanSlack / 4; rto > DefaultRetryTimeout {
		return rto
	}
	return DefaultRetryTimeout
}

// Scale shrinks the run length by factor (0 < factor <= 1) for quick
// runs; all other parameters are untouched.
func (c Config) Scale(factor float64) Config {
	if factor <= 0 || factor > 1 {
		return c
	}
	c.Duration = time.Duration(float64(c.Duration) * factor)
	c.Warmup = time.Duration(float64(c.Warmup) * factor)
	if c.Duration < time.Minute {
		c.Duration = time.Minute
	}
	if c.Warmup >= c.Duration {
		c.Warmup = c.Duration / 2
	}
	return c
}
