package rtdbs_test

import (
	"os"
	"testing"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
	"siteselect/internal/scenario"
)

// checkedConfig is the benchmark's checked cell: the configuration of
// bench/workloads/degraded_checked.rts, monitor on.
func checkedConfig(t testing.TB) config.Config { return benchCell(t, "degraded_checked.rts") }

// benchCell is the configuration of the benchmark's one-cell scenario
// bench/workloads/<file>.
func benchCell(t testing.TB, file string) config.Config {
	t.Helper()
	src, err := os.ReadFile("../../bench/workloads/" + file)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.Parse(file, string(src))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := scenario.Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return compiled.Config
}

// TestMonitorMatchesFullSweep is the proof that the model reports every
// object whose checked state an event changes: after every event of
// every run, the monitor's checks — which look only at what the event
// touched — and the same checks sweeping the whole model return the same
// verdict, nil or the exact message. It covers the fault-injection
// tests' cluster, the sharding tests' four-shard one and the benchmark's
// checked cell, at seeds 1–20 each (5 with -short).
func TestMonitorMatchesFullSweep(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for _, cell := range []struct {
		name string
		cfg  config.Config
	}{
		{"faulty", rtdbs.FaultyConfig(6, 0.2)},
		{"sharded", rtdbs.ShardedConfig(6, 4, 0.2)},
		{"checked", checkedConfig(t)},
	} {
		var steps int64
		for seed := 1; seed <= seeds; seed++ {
			cell.cfg.Seed = int64(seed)
			n, violation, err := rtdbs.CheckBothWays(cell.cfg)
			if err != nil {
				t.Fatalf("%s, seed %d: %v", cell.name, seed, err)
			}
			if violation != "" {
				t.Logf("%s, seed %d: both report %s", cell.name, seed, violation)
			}
			steps += n
		}
		t.Logf("%s: %d seeds, %d steps, equal verdicts at every one", cell.name, seeds, steps)
	}
}

// BenchmarkMonitoredRun runs the checked cell without the monitor and
// with it; EXPERIMENTS.md records the ratio of the two.
func BenchmarkMonitoredRun(b *testing.B) {
	cfg := checkedConfig(b)
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		cfg.CheckInvariants = mode.on
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rtdbs.Run(rtdbs.LS, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
