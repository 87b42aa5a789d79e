package rtdbs

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"siteselect/internal/config"
)

// faultyConfig is a small cluster with the invariant monitor on, used by
// the fault-injection tests.
func faultyConfig(n int, update float64) config.Config {
	cfg := config.Default(n, update)
	cfg.Duration = 3 * time.Minute
	cfg.Drain = 40 * time.Second
	cfg.Warmup = 10 * time.Second
	cfg.CheckInvariants = true
	return cfg
}

// fingerprint reduces a result to a comparable summary covering the
// metrics the experiment tables report plus the fault counters.
func fingerprint(r *Result) string {
	return fmt.Sprintf("sub=%d com=%d mis=%d abt=%d msgs=%d bytes=%d retries=%d faults=%+v resp=%v",
		r.M.Submitted, r.M.Committed, r.M.Missed, r.M.Aborted,
		r.TotalMessages, r.TotalBytes, r.Retries, r.Faults, r.M.TxnResponse.Mean())
}

func TestFaultsDropDupSpikeSurvived(t *testing.T) {
	for _, sys := range []string{"cs", "ls"} {
		t.Run(sys, func(t *testing.T) {
			cfg := faultyConfig(6, 0.2)
			cfg.Faults = config.FaultSpec{
				DropRate:     0.1,
				DupRate:      0.08,
				SpikeRate:    0.08,
				SpikeLatency: 5 * time.Millisecond,
			}
			var (
				c   *Cluster
				err error
			)
			if sys == "cs" {
				c, err = NewClientServer(cfg)
			} else {
				c, err = NewLoadSharing(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatalf("faulty run failed audit: %v", err)
			}
			if res.M.Committed == 0 {
				t.Fatal("nothing committed under moderate faults")
			}
			if res.Faults.Dropped == 0 || res.Faults.Duplicated == 0 || res.Faults.Spiked == 0 {
				t.Fatalf("fault lottery idle: %+v", res.Faults)
			}
			if res.Retries == 0 {
				t.Fatal("no client retries under a 5% drop rate")
			}
			t.Logf("%s: success=%.1f%% retries=%d faults=%+v",
				sys, res.SuccessRate(), res.Retries, res.Faults)
		})
	}
}

// TestFaultsPartitionGracefulAbort cuts one client off for longer than
// any transaction's slack: its in-flight work must miss deadlines and
// abort cleanly (no hang, no invariant violation) while the rest of the
// cluster keeps committing.
func TestFaultsPartitionGracefulAbort(t *testing.T) {
	cfg := faultyConfig(4, 0.1)
	cfg.Faults = config.FaultSpec{
		PartitionSite:     2,
		PartitionAt:       20 * time.Second,
		PartitionDuration: 15 * time.Second,
	}
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatalf("partition run failed audit: %v", err)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed around a single-client partition")
	}
	if res.Faults.PartitionDrops == 0 {
		t.Fatal("partition never dropped a frame")
	}
	t.Logf("client partition: success=%.1f%% partitionDrops=%d retransmits=%d",
		res.SuccessRate(), res.Faults.PartitionDrops, res.Faults.Retransmits)
}

// TestFaultsServerPartition cuts the server itself off: every client
// loses object service for the window, which is the fault layer's
// generalization of the server-outage study.
func TestFaultsServerPartition(t *testing.T) {
	cfg := faultyConfig(4, 0.1)
	cfg.Faults = config.FaultSpec{
		PartitionSite:     0, // the server
		PartitionAt:       20 * time.Second,
		PartitionDuration: 10 * time.Second,
	}
	cs, err := NewClientServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.Run()
	if err != nil {
		t.Fatalf("server-partition run failed audit: %v", err)
	}
	if res.M.Committed == 0 {
		t.Fatal("nothing committed around the server partition")
	}
	if res.Faults.PartitionDrops == 0 {
		t.Fatal("server partition never dropped a frame")
	}
	t.Logf("server partition: success=%.1f%% partitionDrops=%d",
		res.SuccessRate(), res.Faults.PartitionDrops)
}

// TestFaultsDeterministic runs the same faulty configuration twice:
// seed and fault schedule fixed, the two results must be byte-identical.
func TestFaultsDeterministic(t *testing.T) {
	run := func() string {
		cfg := faultyConfig(4, 0.1)
		cfg.Faults = config.FaultSpec{
			DropRate:          0.05,
			DupRate:           0.03,
			SpikeRate:         0.03,
			SpikeLatency:      4 * time.Millisecond,
			PartitionSite:     1,
			PartitionAt:       30 * time.Second,
			PartitionDuration: 5 * time.Second,
		}
		ls, err := NewLoadSharing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed and fault schedule, different results:\n%s\n%s", a, b)
	}
}

// TestFaultsZeroRateMatchesCleanRun is the metamorphic identity: a
// config whose fault spec is all zeros must produce byte-identical
// results to one that never mentions faults, on every system.
func TestFaultsZeroRateMatchesCleanRun(t *testing.T) {
	base := smallConfig(4, 0.05)
	zeroed := base
	zeroed.Faults = config.FaultSpec{} // explicit zero spec
	for _, tc := range []struct {
		name  string
		build func(config.Config) (*Cluster, error)
	}{{"cs", NewClientServer}, {"ls", NewLoadSharing}} {
		t.Run(tc.name, func(t *testing.T) {
			c1, err := tc.build(base)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := c1.Run()
			if err != nil {
				t.Fatal(err)
			}
			c2, err := tc.build(zeroed)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := c2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if f1, f2 := fingerprint(r1), fingerprint(r2); f1 != f2 {
				t.Fatalf("zero-rate faults perturbed the run:\n%s\n%s", f1, f2)
			}
		})
	}
}

// TestFaultyRunLeaksNoGoroutines runs a lossy cluster — in-flight
// retries, retransmissions, and a partition pending at shutdown — and
// checks that Run's close path reaps every process goroutine.
func TestFaultyRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := faultyConfig(4, 0.1)
	cfg.Faults = config.FaultSpec{
		DropRate:          0.1,
		DupRate:           0.05,
		SpikeRate:         0.05,
		SpikeLatency:      5 * time.Millisecond,
		PartitionSite:     1,
		PartitionAt:       cfg.Duration - 10*time.Second,
		PartitionDuration: time.Minute, // outlasts the run
	}
	ls, err := NewLoadSharing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Run: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInvariantMonitorCleanRun runs the monitor over a fault-free run
// of each system: the continuous checks must hold on healthy protocol
// traffic too.
func TestInvariantMonitorCleanRun(t *testing.T) {
	cfg := faultyConfig(4, 0.1)
	for _, tc := range []struct {
		name  string
		build func(config.Config) (*Cluster, error)
	}{{"cs", NewClientServer}, {"ls", NewLoadSharing}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatalf("monitored clean run: %v", err)
			}
			if res.M.Committed == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}
