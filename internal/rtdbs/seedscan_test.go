package rtdbs_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
	"siteselect/internal/scenario"
)

var scanSeeds = flag.Int("seeds", 0, "TestSeedScan: run this many seeds through each load-sharing cell (0 skips it)")

// TestSeedScan is `make seed-scan`, ROADMAP item 1(a): seeds 1..N through
// the three load-sharing cells the known defects live in — the paper's
// system at 150 clients and 20 % updates; the same on the benchmark's
// write-path server (four shards, a 100 ms batch window, heat-driven
// replication); the benchmark's `lossy` cell — each built by rtdbs.New
// and run to the end of its audit, panics recovered. It reports, per
// cell, the seeds that failed with the first line of what they failed
// with; it fixes nothing and fails nothing, so it is a baseline to hold
// a fix against, not a gate.
func TestSeedScan(t *testing.T) {
	if *scanSeeds <= 0 {
		t.Skip("run with -seeds N (make seed-scan)")
	}
	sharded := config.Default(150, 0.20)
	sharded.Duration, sharded.Warmup = 45*time.Minute, 5*time.Minute
	sharded.BatchWindow = 100 * time.Millisecond
	sharded.Sharding = config.Topology{Servers: 4, ReplicateHot: 3, HeatWindow: 5 * time.Minute, ShedBelow: 1}
	src, err := os.ReadFile("../../bench/workloads/degraded_lossy.rts")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.Parse("degraded_lossy.rts", string(src))
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := scenario.Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		name string
		cfg  config.Config
	}{
		{"plain", config.Default(150, 0.20)},
		{"sharded+batched", sharded},
		{"lossy", lossy.Config},
	} {
		var failed []string
		for seed := 1; seed <= *scanSeeds; seed++ {
			cell.cfg.Seed = int64(seed)
			if err := runRecovered(cell.cfg); err != nil {
				line, _, _ := strings.Cut(err.Error(), "\n")
				failed = append(failed, fmt.Sprintf("\n    seed %d: %s", seed, line))
			}
		}
		t.Logf("%s: %d of %d seeds failed%s", cell.name, len(failed), *scanSeeds, strings.Join(failed, ""))
	}
}

// TestKnownDispatchPanicSeeds pins defect (d) of ROADMAP item 1: the
// paper's load-sharing system at 150 clients and 20 % updates panics at
// dispatch on these four seeds (`make seed-scan`'s plain cell), because
// tryDispatch serves a sealed run whose object the lock table will not
// grant. It pins the defect so that a change to the dispatch code cannot
// move it unnoticed; the fix (item 1(b)) flips this test into one that
// each seed runs clean.
func TestKnownDispatchPanicSeeds(t *testing.T) {
	const want = "server: free object grant failed at dispatch"
	for _, seed := range []int64{22, 83, 139, 145} {
		cfg := config.Default(150, 0.20)
		cfg.Seed = seed
		if err := runRecovered(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("seed %d: got %v, want a panic %q", seed, err, want)
		}
	}
}

// runRecovered runs one load-sharing system to the end of its audit and
// returns what it failed with, a panic included.
func runRecovered(cfg config.Config) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	_, err = rtdbs.Run(rtdbs.LS, cfg)
	return err
}
