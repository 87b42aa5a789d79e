package rtdbs_test

import (
	"runtime"
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
	"siteselect/internal/scenario"
)

// scaleSwarm spells out config.Scale(10 000) as a scenario, the way the
// benchmark's scale_10k.rts and scale_100k.rts do: one class, open-loop
// Poisson arrivals. Compiled, it is a population on the class path — a
// phased arrival schedule and a stream per phase beside what the flat
// Table 1 path builds.
const scaleSwarm = `scenario swarm
system cs
seed 1
config {
  duration 100s
  drain 30s
  db 20000
  server-memory 100000
  client-memory 256
  client-disk 0
  length 1s
  slack 1000s
  objects 4
  updates 0.01
  pattern localized-rw
  hot-size 200
  local-fraction 0.9
  zipf-theta 0.9
  scheduling edf
  deadlines slack
  threads 100
  executors 2
  max-subtasks 2
  net-latency 200us
  net-bandwidth 1000000000
  topology switched
  disk-read 20us
  disk-write 20us
  server-op-cpu 5us
}
clients swarm 10000 {
  arrivals {
    phase open rate 0.005
  }
}
`

// TestParkedClientFootprint is the blocking form of the population
// tier's B/client: a 10k-client cluster built and started — every site
// constructed, armed and parked, no transaction yet submitted — must
// stay under a fixed number of heap bytes and allocations per client, on
// the flat Table 1 path (config.Scale) and on the class path a scenario
// compiles to, which is the one the benchmark's scale_100k builds. Both
// readings repeat for a given Go release. go1.24.0: 1 412 B and 0.0
// mallocs on the default path, 1 541 B and 0.0 on the class path — a
// parked site is no object of its own and runs no machine: its arrival
// stream is a kernel event the Client receives (Client.RunEvent), and
// it waits for its messages as its mailboxes' reader hook. With a
// dispatcher machine in every client and a connection handler per
// client at every shard, spawned at the start only to park, the same
// two read 1 912 and 2 015 B on go1.24.0 (2 009 and 2 112 B as first
// recorded). With a generator machine
// in every client, which died before the site did, the same two read
// 2 233 and 2 362 B and 1.0 mallocs; with a client-wide waiter index and
// three keyed stores in every client, where a site now holds one list
// of object records and one of fanouts, 2 357 and 2 486 B; with free
// lists of machines and exchange records in every client, where a site
// now holds one pointer to the system's stock, 2 455 and 2 584 B; with
// free lists in every cache and lock table too, 2 519 and 2 648; before a
// population was carved from arrays, 2 692 B and 15.0 mallocs, 2 819 B
// and 19.0; 2 831 and 16.0 before a lock table kept one record per owner
// and a server one per attached site; the parent of the change that
// added this test: 4 224 B and 30.1. The byte ceilings sit an eighth
// above the readings, which covers what differs across the CI matrix —
// size classes and the growth of the few population-sized arrays — and
// stays below what one regression costs: a by-value config.Config in
// each client is +424 B, and any object made per site is a malloc, which
// the ceiling of half a malloc a client has no room for. (What a site
// takes only once traffic reaches it — a mailbox ring, the storage of
// its cache's and lock table's indexes — comes from the system's slabs
// and is pinned where it lives, in internal/sim, internal/cache and
// internal/lockmgr; page frames in internal/pagefile.)
func TestParkedClientFootprint(t *testing.T) {
	const (
		clients        = 10_000
		mallocsCeiling = 0.5
	)
	swarm, err := scenario.Parse("swarm.rts", scaleSwarm)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := scenario.Compile(swarm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		cfg          config.Config
		bytesCeiling float64
	}{
		{"default", config.Scale(clients), 1590},
		{"class", compiled.Config, 1735},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.NumClients != clients {
				t.Fatalf("%d clients configured, want %d", tc.cfg.NumClients, clients)
			}
			var before, after runtime.MemStats
			settledHeap(&before)
			c, err := rtdbs.NewClientServer(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			settledHeap(&after)
			bytes := float64(after.HeapAlloc-before.HeapAlloc) / clients
			mallocs := float64(after.Mallocs-before.Mallocs) / clients
			t.Logf("%d clients built and started (%s path): %.0f B/client, %.1f mallocs/client", clients, tc.name, bytes, mallocs)
			if bytes > tc.bytesCeiling {
				t.Errorf("%.0f B/client, ceiling %.0f", bytes, tc.bytesCeiling)
			}
			if mallocs > mallocsCeiling {
				t.Errorf("%.1f mallocs/client, ceiling %.1f", mallocs, mallocsCeiling)
			}
			runtime.KeepAlive(c)
			c.Env().Close()
		})
	}
}

// TestMallocsPerTransaction is the blocking form of the benchmark's
// allocs_per_txn — every heap object from construction to the end of the
// drain, divided by the transactions submitted — on its write path at a
// tenth of the size (a sharded, batched, 20 %-update client-server cell)
// and on the paper's own system, which nothing else pins: the ls-100
// cell of Figure 3 at a short horizon, where every transaction that
// meets a conflict takes an H2 decision and a tenth ask to be
// decomposed; and on that cell traced, which must cost next to nothing
// more. go1.24 reads 0.5, 0.9 and 0.9 (1.0, 2.2 and 2.2 while every
// forward list was a heap object with entry arrays grown by append, a
// machine's per-access vectors and a lock sequence's requests were
// arrays made at each new length, and every replica heartbeat and
// client release-epoch list was an object of its own; 10.8 traced while every
// transaction's trace was a heap record, a map entry and an event slice
// grown by append, where the tracer now carves records from a slab and
// chains events through one chunked log; 1.4 and 3.4 while every site
// made Go maps for its cache and lock table, and took a mailbox ring and
// its lists' arrays of its own on first use, where the system's slabs
// now hold all of them; 1.9 and 6.0 while every site
// kept its own spent machines and exchange records, and payload records
// were made one by one, where the system's stock now carves all three
// from chunks and the sites share them; 16.3 and 32.2 before the run's
// working set — cache entries, lock-table records and the arrays they
// outgrow, the transactions themselves — was carved from slabs the
// system owns, and the H2 round ran on pooled records and caller-owned
// scratch; 69.3 on the first before payloads, batch windows and lock
// queues were pooled). What is left is mostly chunks: of the slabs, of
// the blocks that lists and machine vectors take, and of the
// transactions. The ceilings
// leave a third for what differs across the CI matrix (slab and array
// growth, mostly) and sit far below what one boxed payload per message
// (+19 at the first cell's 19 messages a transaction), one object per
// cached copy (+8) or one map per H2 decision costs.
func TestMallocsPerTransaction(t *testing.T) {
	sharded := config.Default(40, 0.20)
	sharded.Sharding = config.Topology{Servers: 4, ReplicateHot: 3, HeatWindow: 5 * time.Minute}
	sharded.BatchWindow = 100 * time.Millisecond
	sharded.Duration, sharded.Warmup = 20*time.Minute, 2*time.Minute
	ls100 := config.Default(100, 0.01)
	ls100.Duration, ls100.Warmup = 7*time.Minute, time.Minute
	ls100traced := ls100
	ls100traced.Trace = true
	for _, tc := range []struct {
		name    string
		cfg     config.Config
		build   func(config.Config) (*rtdbs.Cluster, error)
		ceiling float64
		busy    func(*rtdbs.Result) bool
	}{
		{"cs-sharded", sharded, rtdbs.NewClientServer, 0.7, func(r *rtdbs.Result) bool {
			return r.BatchFlushes > 0 && r.RecallsSent > 0 && r.ReplicasInstalled > 0
		}},
		{"ls-100", ls100, rtdbs.NewLoadSharing, 1.3, func(r *rtdbs.Result) bool {
			return r.M.ShippedTxns > 0 && r.M.DecomposedTxns > 0 && r.ForwardHops > 0
		}},
		{"ls-100-traced", ls100traced, rtdbs.NewLoadSharing, 1.3, func(r *rtdbs.Result) bool {
			return r.M.ShippedTxns > 0 && r.MissCauses != nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			c, err := tc.build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.M.Submitted < 3000 || !tc.busy(res) {
				t.Fatalf("cell too quiet to pin: %d submitted, %d recalls, %d shipped", res.M.Submitted, res.RecallsSent, res.M.ShippedTxns)
			}
			perTxn := float64(after.Mallocs-before.Mallocs) / float64(res.M.Submitted)
			t.Logf("%s: %d transactions, %.1f messages each: %.1f mallocs per transaction",
				tc.name, res.M.Submitted, float64(res.TotalMessages)/float64(res.M.Submitted), perTxn)
			if perTxn > tc.ceiling {
				t.Errorf("%.1f mallocs per submitted transaction, ceiling %.1f", perTxn, tc.ceiling)
			}
		})
	}
}

// settledHeap collects twice and reads the memory statistics, as the
// benchmark does before and after a cell.
func settledHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// TestBuildBytes pins what building the benchmark's contended_sharded
// cell (bench/workloads/contended_cs.rts: 150 clients, four shards over
// 10 000 objects) allocates: the benchmark's setup_s times this
// construction, most of it clearing memory. go1.24 reads 1.54 MB; 1.69
// while every shard indexed its object records with pointers, 1.85 while
// its buffer pool indexed its pages with pointers too, 2.19 while its
// disk also kept an 8-byte stamp for each of its pages, which nothing
// read.
func TestBuildBytes(t *testing.T) {
	const ceiling = 19 << 20 / 10 // 1.9 MB
	cfg := benchCell(t, "contended_cs.rts")
	var before, after runtime.MemStats
	settledHeap(&before)
	c, err := rtdbs.NewClientServer(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("contended_sharded built: %.2f MB", float64(bytes)/(1<<20))
	if bytes > ceiling {
		t.Errorf("building contended_sharded allocates %.2f MB, ceiling %.2f", float64(bytes)/(1<<20), float64(ceiling)/(1<<20))
	}
	c.Env().Close()
}

// TestRetainedHeapFlatInRunLength: what a run keeps grows with what it
// has in flight, not with how long it ran. The benchmark's
// contended_sharded cell is run for 30 and for 60 virtual minutes, and
// the heap it retains at the end — the system kept alive, as the
// benchmark's live_heap_mb reads it — may grow by at most 3 MB between
// the two. go1.24 reads 13.6 and 15.4 MB (+1.8: generator states and
// lock-holder blocks); 17.7 and 21.6 (+3.9) while the clients and the
// shards kept a release-epoch history, a counter per object and shard a
// client ever released and a list per object at every shard; 18.1 and
// 23.5 (+5.4) while a client's release-epoch counters were 24-byte
// entries grown by append; 25.9 and 38.4 (+12.4) while every system kept
// every transaction it generated to count it at the end.
func TestRetainedHeapFlatInRunLength(t *testing.T) {
	if testing.Short() {
		t.Skip("two contended runs of 30 and 60 virtual minutes are not -short work")
	}
	const ceiling = 3 << 20
	retained := func(d time.Duration) int64 {
		cfg := benchCell(t, "contended_cs.rts")
		cfg.Duration = d
		var before, after runtime.MemStats
		settledHeap(&before)
		c, err := rtdbs.NewClientServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		settledHeap(&after)
		runtime.KeepAlive(c)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	short, long := retained(30*time.Minute), retained(60*time.Minute)
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	t.Logf("retained heap: %.1f MB after 30 virtual minutes, %.1f MB after 60", mb(short), mb(long))
	if long-short > ceiling {
		t.Errorf("retained heap grows %.1f MB from 30 to 60 virtual minutes, ceiling %.0f", mb(long-short), mb(ceiling))
	}
}

// TestStartedPopulationIsIdle: a started population runs nothing until
// its first arrival. A 10k-client cluster, on one shard and on four,
// has no live machine after Start and nothing due now; what is queued
// is its clients' first arrivals, one a client, and running the clock
// to the start executes no event. A site waits for its messages as its
// mailboxes' reader hook (sim.Mailbox): until it did, Start spawned a
// dispatcher per client and a connection handler per client at each
// shard, 20 000 machines here on one shard, each with a first resume
// that only parked it.
func TestStartedPopulationIsIdle(t *testing.T) {
	const clients = 10_000
	for _, shards := range []int{1, 4} {
		cfg := config.Scale(clients)
		cfg.Sharding.Servers = shards
		cfg.Duration = 100 * time.Hour // every client's first arrival falls within it
		c, err := rtdbs.NewLoadSharing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		env := c.Env()
		if n := env.Live(); n != 0 {
			t.Errorf("%d shards: %d machines live after Start, want 0", shards, n)
		}
		if n := env.Pending(); n != clients {
			t.Errorf("%d shards: %d events queued after Start, want %d (a first arrival a client)", shards, n, clients)
		}
		env.Run(0)
		if n := env.Steps(); n != 0 {
			t.Errorf("%d shards: %d events ran at the start, want 0", shards, n)
		}
		t.Logf("%d clients started on %d shards: %d machines live, %d events queued", clients, shards, env.Live(), env.Pending())
		env.Close()
	}
}
