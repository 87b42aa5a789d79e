package rtdbs

import (
	"reflect"
	"testing"
	"time"

	"siteselect/internal/cache"
	"siteselect/internal/client"
	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/txn"
)

// TestDeterminism verifies that two runs with identical configurations
// produce bit-identical metrics — the property every A/B comparison in
// the experiments relies on.
func TestDeterminism(t *testing.T) {
	type summary struct {
		committed, missed, aborted int64
		messages, bytes            int64
		hits, accesses             int64
		shipped, migrations        int64
	}
	run := func() summary {
		ls, err := NewLoadSharing(smallConfig(8, 0.20))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		return summary{
			committed:  res.M.Committed,
			missed:     res.M.Missed,
			aborted:    res.M.Aborted,
			messages:   res.TotalMessages,
			bytes:      res.TotalBytes,
			hits:       res.M.CacheHits,
			accesses:   res.M.CacheAccesses,
			shipped:    res.M.ShippedTxns,
			migrations: res.MigrationsStarted,
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestSeedSensitivity verifies that different seeds actually change the
// workload (guarding against accidentally fixed sub-seeds).
func TestSeedSensitivity(t *testing.T) {
	run := func(seed int64) int64 {
		cfg := smallConfig(8, 0.05)
		cfg.Seed = seed
		cs, err := NewClientServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cs.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMessages
	}
	if run(1) == run(2) {
		t.Fatal("seeds 1 and 2 produced identical message counts")
	}
}

// TestOutcomeConservation checks that every counted transaction reached
// exactly one terminal state in all three systems.
func TestOutcomeConservation(t *testing.T) {
	cfg := smallConfig(6, 0.20)
	ce, err := NewCentralized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rce, err := ce.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := NewClientServer(cfg)
	rcs, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := NewLoadSharing(cfg)
	rls, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"CE": rce, "CS": rcs, "LS": rls} {
		if got := r.M.Committed + r.M.Missed + r.M.Aborted; got != r.M.Submitted {
			t.Errorf("%s: outcomes %d != submitted %d", name, got, r.M.Submitted)
		}
	}
}

// TestMessageConservation checks protocol-level pairings: every recall
// is eventually answered by a return, and client-to-client hops only
// appear in the load-sharing system.
func TestMessageConservation(t *testing.T) {
	cfg := smallConfig(8, 0.20)
	cs, _ := NewClientServer(cfg)
	rcs, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rcs.Messages[netsim.KindClientForward].Count; got != 0 {
		t.Errorf("CS produced %d client-to-client forwards", got)
	}
	// Returns answer recalls plus voluntary dirty evictions, so
	// returns >= recalls - (in-flight at shutdown).
	recalls := rcs.Messages[netsim.KindRecall].Count
	returns := rcs.Messages[netsim.KindObjectReturn].Count
	if returns < recalls-10 {
		t.Errorf("returns %d much lower than recalls %d", returns, recalls)
	}
}

// TestLockTableCleanAfterDrain verifies that after a run every global
// lock is either held by a client that still caches the object, or
// nothing (no locks leaked to dead transactions).
func TestLockTableCleanAfterDrain(t *testing.T) {
	cfg := smallConfig(6, 0.20)
	ls, _ := NewLoadSharing(cfg)
	ls.Start()
	ls.Env().Run(cfg.Duration + cfg.Drain)
	defer ls.Env().Close()
	if err := ls.Audit(); err != nil {
		t.Fatal(err)
	}
	// Spot-check holder/cache agreement: for every object a client
	// caches with EL, the server must record that client as EL holder.
	srv := ls.Server()
	for _, cl := range ls.Clients() {
		cl.Cache().Visit(func(e *cache.Entry) {
			if e.Dirty && srv.Locks().HolderMode(e.Obj, lockmgr.OwnerID(cl.ID())) == 0 {
				t.Errorf("client %d caches dirty object %d without a server-side lock", cl.ID(), e.Obj)
			}
		})
	}
}

// TestShippedTransactionsExecuteRemotely verifies the shipping path end
// to end: shipped transactions record an ExecSite different from their
// origin and still reach terminal states.
func TestShippedTransactionsExecuteRemotely(t *testing.T) {
	cfg := smallConfig(12, 0.20)
	cfg.Duration = 8 * time.Minute
	cfg.Warmup = time.Minute
	ls, _ := NewLoadSharing(cfg)
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	shipped := 0
	for _, cl := range ls.Clients() {
		for _, tx := range cl.Tracked {
			if !tx.Shipped || !tx.Terminal() {
				continue
			}
			shipped++
			if tx.Status == txn.StatusCommitted && tx.ExecSite == tx.Origin {
				t.Errorf("txn %d marked shipped but committed at its origin", tx.ID)
			}
		}
	}
	if res.M.ShippedTxns > 0 && shipped == 0 {
		t.Error("ShippedTxns counted but no shipped transaction tracked")
	}
}

// TestCSMatchesLSWithEverythingOff checks that the load-sharing system
// with every technique disabled behaves like the basic client-server
// system on the primary metric.
func TestCSMatchesLSWithEverythingOff(t *testing.T) {
	cfg := smallConfig(8, 0.05)
	cs, _ := NewClientServer(cfg)
	rcs, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.UseH1 = false
	cfg2.UseH2 = false
	cfg2.UseDecomposition = false
	cfg2.UseForwardLists = false
	ls, _ := NewLoadSharing(cfg2)
	rls, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rcs.M.Committed != rls.M.Committed || rcs.TotalMessages != rls.TotalMessages {
		t.Fatalf("neutered LS differs from CS: committed %d vs %d, messages %d vs %d",
			rcs.M.Committed, rls.M.Committed, rcs.TotalMessages, rls.TotalMessages)
	}
}

// TestTinyCachesStillCorrect stresses eviction paths: one-object memory
// tier, no disk tier.
func TestTinyCachesStillCorrect(t *testing.T) {
	cfg := smallConfig(4, 0.20)
	cfg.ClientMemory = 2
	cfg.ClientDisk = 0
	cfg.Duration = 5 * time.Minute
	cfg.Warmup = time.Minute
	for _, build := range []func(config.Config) (*Cluster, error){NewClientServer, NewLoadSharing} {
		c, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Submitted == 0 {
			t.Fatal("no work")
		}
	}
}

// TestSingleClient exercises the degenerate one-client cluster.
func TestSingleClient(t *testing.T) {
	cfg := smallConfig(1, 0.20)
	cfg.Duration = 5 * time.Minute
	cfg.Warmup = time.Minute
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.ShippedTxns != 0 {
		t.Fatalf("single client shipped %d transactions", res.M.ShippedTxns)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

// TestSerialClients runs with one executor per client (the strict
// serial-queue reading of H1).
func TestSerialClients(t *testing.T) {
	cfg := smallConfig(6, 0.05)
	cfg.ClientExecutors = 1
	cfg.Duration = 8 * time.Minute
	cfg.Warmup = time.Minute
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed with serial executors")
	}
}

// TestZeroUpdateWorkload runs a read-only workload: no recalls beyond
// cold-start effects should be needed and nothing may abort.
func TestZeroUpdateWorkload(t *testing.T) {
	cfg := smallConfig(6, 0)
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Aborted != 0 {
		t.Fatalf("read-only workload aborted %d transactions", res.M.Aborted)
	}
	if res.DeniesDeadlock != 0 {
		t.Fatalf("read-only workload hit %d deadlock denials", res.DeniesDeadlock)
	}
}

// TestAllWritesStress runs a 100%-update workload: maximal lock
// conflict, recall and migration pressure. Audits must stay clean.
func TestAllWritesStress(t *testing.T) {
	cfg := smallConfig(8, 1.0)
	cfg.Duration = 6 * time.Minute
	cfg.Warmup = time.Minute
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Submitted == 0 {
		t.Fatal("no work")
	}
	if got := res.M.Committed + res.M.Missed + res.M.Aborted; got != res.M.Submitted {
		t.Fatalf("outcomes %d != submitted %d", got, res.M.Submitted)
	}
}

// TestDecompositionEndToEnd forces heavy decomposition (every
// transaction decomposable over a tightly clustered database) and
// verifies subtasks run and parents terminate exactly once.
func TestDecompositionEndToEnd(t *testing.T) {
	cfg := smallConfig(8, 0.05)
	cfg.DecomposableFraction = 1.0
	cfg.DBSize = 400
	cfg.HotRegionSize = 50
	cfg.Duration = 10 * time.Minute
	cfg.Warmup = time.Minute
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.DecomposedTxns == 0 {
		t.Skip("workload produced no decomposable groupings (location-dependent)")
	}
	if res.M.SubtasksRun < 2*res.M.DecomposedTxns {
		t.Fatalf("decomposed %d but only %d subtasks", res.M.DecomposedTxns, res.M.SubtasksRun)
	}
	if got := res.M.Committed + res.M.Missed + res.M.Aborted; got != res.M.Submitted {
		t.Fatalf("outcomes %d != submitted %d", got, res.M.Submitted)
	}
}

// TestManyExecutors runs with a wide executor pool per client.
func TestManyExecutors(t *testing.T) {
	cfg := smallConfig(6, 0.20)
	cfg.ClientExecutors = 8
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

// TestImpossibleDeadlines floors the workload at deadlines shorter than
// any transaction can meet once queueing exists: the system must degrade
// gracefully (no hangs, no audit failures), not crash.
func TestImpossibleDeadlines(t *testing.T) {
	cfg := smallConfig(6, 0.20)
	cfg.MeanSlack = 2 * time.Second // below MeanLength: slack fallback kicks in
	cfg.MeanLength = 10 * time.Second
	cfg.Duration = 5 * time.Minute
	cfg.Warmup = time.Minute
	for _, build := range []func(config.Config) (*Cluster, error){NewClientServer, NewLoadSharing} {
		c, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.M.Committed + res.M.Missed + res.M.Aborted; got != res.M.Submitted {
			t.Fatalf("outcomes %d != submitted %d", got, res.M.Submitted)
		}
	}
}

// TestCentralizedOverload drives the centralized server far past its
// CPU capacity: success collapses but accounting stays exact.
func TestCentralizedOverload(t *testing.T) {
	cfg := config.DefaultCentralized(60, 0.05)
	cfg.Duration = 5 * time.Minute
	cfg.Warmup = time.Minute
	cfg.Drain = time.Minute
	cfg.ServerOpCPU = 100 * time.Millisecond // 50x overload
	ce, err := NewCentralized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ce.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.SuccessRate() > 0.2 {
		t.Fatalf("overloaded server succeeded %.1f%%", 100*res.M.SuccessRate())
	}
	if got := res.M.Committed + res.M.Missed + res.M.Aborted; got != res.M.Submitted {
		t.Fatalf("outcomes %d != submitted %d", got, res.M.Submitted)
	}
}

// TestCentralizedOCCSmoke runs the optimistic variant end to end and
// checks outcome conservation plus that low contention favours OCC over
// blocking 2PL.
func TestCentralizedOCCSmoke(t *testing.T) {
	cfg := config.DefaultCentralized(8, 0.20)
	cfg.Duration = 8 * time.Minute
	cfg.Warmup = time.Minute
	cfg.Drain = time.Minute
	oc, err := NewCentralizedOCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rocc, err := oc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rocc.M.Committed + rocc.M.Missed + rocc.M.Aborted; got != rocc.M.Submitted {
		t.Fatalf("outcomes %d != submitted %d", got, rocc.M.Submitted)
	}
	if rocc.M.Committed == 0 {
		t.Fatal("nothing committed under OCC")
	}
	pl, err := NewCentralized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rpl, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rocc.SuccessRate() < rpl.SuccessRate()-2 {
		t.Fatalf("at low contention OCC (%.1f%%) should not trail 2PL (%.1f%%)",
			rocc.SuccessRate(), rpl.SuccessRate())
	}
}

// TestSpeculationEndToEnd verifies the speculative-processing extension
// fires under contention and keeps the audits clean.
func TestSpeculationEndToEnd(t *testing.T) {
	cfg := smallConfig(10, 0.20)
	cfg.UseSpeculation = true
	cfg.Duration = 8 * time.Minute
	cfg.Warmup = time.Minute
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.SpeculativeRuns == 0 {
		t.Fatal("speculation never fired")
	}
	if res.M.SpeculationHits > res.M.SpeculativeRuns {
		t.Fatalf("hits %d > runs %d", res.M.SpeculationHits, res.M.SpeculativeRuns)
	}
	if got := res.M.Committed + res.M.Missed + res.M.Aborted; got != res.M.Submitted {
		t.Fatalf("outcomes %d != submitted %d", got, res.M.Submitted)
	}
}

// TestPatternsRunCleanly exercises the alternative access generators
// through a whole system run.
func TestPatternsRunCleanly(t *testing.T) {
	for _, pat := range []config.AccessPattern{config.PatternUniform, config.PatternHotCold} {
		cfg := smallConfig(6, 0.20)
		cfg.Pattern = pat
		ls, err := NewLoadSharing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ls.Run()
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if res.M.Committed == 0 {
			t.Fatalf("%v: nothing committed", pat)
		}
	}
}

// TestWriteThrough verifies the write-through ablation: committed
// updates reach the server immediately, so at the end of the run no
// dirty copies linger anywhere.
func TestWriteThrough(t *testing.T) {
	cfg := smallConfig(6, 0.20)
	cfg.WriteThrough = true
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed")
	}
	dirty := 0
	for _, cl := range ls.Clients() {
		cl.Cache().Visit(func(e *cache.Entry) {
			if e.Dirty && !cl.HasDeferredRecall(e.Obj) {
				dirty++
			}
		})
	}
	if dirty > 2 { // migrating objects may legitimately be in flight
		t.Fatalf("write-through left %d dirty copies", dirty)
	}
}

// TestAuditSweep hammers the full protocol (speculation on, heavy
// updates, many clients) across several seeds; the end-of-run audits
// must stay clean under every interleaving.
func TestAuditSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(1); seed <= 6; seed++ {
		cfg := config.Default(40, 0.20).Scale(0.1)
		cfg.Seed = seed
		cfg.UseSpeculation = seed%2 == 0
		ls, err := NewLoadSharing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ls.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cs, err := NewClientServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Run(); err != nil {
			t.Fatalf("seed %d CS: %v", seed, err)
		}
	}
}

// TestLoggingEndToEnd runs with client-based WAL enabled: commits force
// log records, group commit batches them, and nothing deadlocks on the
// shared client disks.
func TestLoggingEndToEnd(t *testing.T) {
	cfg := smallConfig(8, 0.20)
	cfg.UseLogging = true
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed")
	}
	var appends, forces int64
	for _, cl := range ls.Clients() {
		if l := cl.Log(); l != nil {
			appends += l.Appends
			forces += l.Forces
		}
	}
	if appends == 0 || forces == 0 {
		t.Fatalf("no logging activity: appends=%d forces=%d", appends, forces)
	}
	if forces > appends {
		t.Fatalf("forces %d exceed appends %d", forces, appends)
	}
	// Sanity against the no-logging baseline: logging costs something.
	base, _ := NewLoadSharing(smallConfig(8, 0.20))
	rb, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.TxnResponse.Mean() < rb.M.TxnResponse.Mean() {
		t.Logf("note: logging run faster than baseline (%v vs %v) — scheduling noise",
			res.M.TxnResponse.Mean(), rb.M.TxnResponse.Mean())
	}
}

// TestCentralizedLogging runs the CE engine with WAL on the shared data
// spindle.
func TestCentralizedLogging(t *testing.T) {
	cfg := config.DefaultCentralized(8, 0.20)
	cfg.Duration = 5 * time.Minute
	cfg.Warmup = time.Minute
	cfg.Drain = time.Minute
	cfg.UseLogging = true
	ce, err := NewCentralized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ce.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

// TestExecSpread verifies per-site execution accounting: counts sum to
// the committed total and the spread metric is sane.
func TestExecSpread(t *testing.T) {
	cfg := smallConfig(8, 0.20)
	ls, _ := NewLoadSharing(cfg)
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range res.ExecutedPerSite {
		sum += n
	}
	if sum != res.M.Committed {
		t.Fatalf("per-site sum %d != committed %d", sum, res.M.Committed)
	}
	if cv := res.ExecSpread(); cv < 0 || cv > 10 {
		t.Fatalf("spread = %v", cv)
	}
}

// TestOutageWithoutLoggingLosesUpdates injects a client outage and
// verifies the durability story: without a recovery log, committed
// dirty copies are lost (and counted); with client-based WAL they
// survive. The cluster keeps running through the outage either way.
func TestOutageWithoutLoggingLosesUpdates(t *testing.T) {
	run := func(logging bool) (*Result, int64) {
		cfg := smallConfig(6, 0.30)
		cfg.Duration = 8 * time.Minute
		cfg.Warmup = time.Minute
		cfg.UseLogging = logging
		cfg.OutageClient = 2
		cfg.OutageAt = 4 * time.Minute
		cfg.OutageDuration = 30 * time.Second
		ls, err := NewLoadSharing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		var lost int64
		for _, cl := range ls.Clients() {
			lost += cl.LostUpdates
		}
		return res, lost
	}
	resNoLog, lostNoLog := run(false)
	resLog, lostLog := run(true)
	if resNoLog.M.Committed == 0 || resLog.M.Committed == 0 {
		t.Fatal("cluster did not survive the outage")
	}
	if lostLog != 0 {
		t.Fatalf("WAL-protected run lost %d updates", lostLog)
	}
	if lostNoLog == 0 {
		t.Skip("no dirty copies at the crashed client at outage time (workload-dependent)")
	}
}

// TestOutageMessagesDrainAfterRestart verifies that traffic queued
// during the partition is processed once the client returns.
func TestOutageMessagesDrainAfterRestart(t *testing.T) {
	cfg := smallConfig(6, 0.20)
	cfg.Duration = 8 * time.Minute
	cfg.Warmup = time.Minute
	cfg.OutageClient = 1
	cfg.OutageAt = 3 * time.Minute
	cfg.OutageDuration = time.Minute
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.M.Committed + res.M.Missed + res.M.Aborted; got != res.M.Submitted {
		t.Fatalf("outcomes %d != submitted %d", got, res.M.Submitted)
	}
}

// TestSharedSlabsMatchPrivateOnes: where a record comes from is not
// behaviour. A cluster whose sites draw everything they recycle — cache
// entries, lock-table records, transaction machines, message payloads,
// the scratch of a site-selection decision — from the system's one
// stock, where a record one site hands back is the next any site takes,
// and one whose every site and shard made a stock of its own (a payload
// then goes back to the receiver's pool, not the sender's) return the
// same Result, field for field, on the
// write-heavy sharded path and on the load-sharing one (forward lists,
// decomposition, local lock tables under four executors).
func TestSharedSlabsMatchPrivateOnes(t *testing.T) {
	sharded := shardedConfig(12, 3, 0.20)
	sharded.BatchWindow = 50 * time.Millisecond
	for _, tc := range []struct {
		name      string
		cfg       config.Config
		loadShare bool
	}{
		{"cs-sharded", sharded, false},
		{"ls", smallConfig(10, 0.10), true},
	} {
		run := func(stock *client.Stock) *Result {
			c, err := newCluster(tc.cfg, tc.loadShare, stock)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		shared, private := run(new(client.Stock)), run(nil)
		if shared.M.Committed == 0 || shared.RecallsSent == 0 {
			t.Fatalf("%s: cell too quiet to compare: %d committed, %d recalls", tc.name, shared.M.Committed, shared.RecallsSent)
		}
		if !reflect.DeepEqual(shared, private) {
			t.Errorf("%s: Result differs between a shared stock and private ones:\n shared  %+v\n private %+v", tc.name, shared, private)
		}
	}
}
