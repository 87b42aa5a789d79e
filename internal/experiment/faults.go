package experiment

import (
	"fmt"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
)

// measuredAt is the instant 1/den of the way through the measured
// window (the run after warm-up).
func measuredAt(c *config.Config, den time.Duration) time.Duration {
	return c.Warmup + (c.Duration-c.Warmup)/den
}

// partition cuts one site off the LAN for the given length, starting
// 1/den of the way through the measured window: a pure network fault, no
// state is wiped.
func partition(site int, den, length time.Duration) func(*config.Config) {
	return func(c *config.Config) {
		c.Faults.PartitionSite = site
		c.Faults.PartitionAt = measuredAt(c, den)
		c.Faults.PartitionDuration = length
	}
}

// OutageStudy injects a client outage (partition plus volatile-state
// loss) mid-run and measures the durability difference client-based
// logging makes, alongside the cluster-wide real-time cost. Two
// fault-layer variants ride along for comparison: the same one-minute
// window as a pure network partition (state intact, reliable channel
// retransmits through the cut) on a client and on the server itself.
// The first three rows are the legacy outage table and keep their names
// and order (regression goldens pin them). Columns are success (0),
// lost updates (1) and client log forces (2).
func OutageStudy(_ Options, n int, u float64) *Study {
	outage := func(logging bool) func(*config.Config) {
		return func(c *config.Config) {
			c.UseLogging = logging
			c.OutageClient = 1
			c.OutageAt = measuredAt(c, 2)
			c.OutageDuration = time.Minute
		}
	}
	return &Study{
		Name:    "outage",
		Title:   fmt.Sprintf("Client outage fault injection (%d clients, %g%% updates, 1-minute outage)", n, u*100),
		Note:    "(success mean ± 95%% CI over %d replications)",
		Key:     Column{Head: "Variant", CSV: "variant", W: 22},
		Clients: n,
		Update:  u,
		Rows: []Setting{
			{Name: "no fault"},
			{Name: "outage, no log", Mod: outage(false)},
			{Name: "outage, client WAL", Mod: outage(true)},
			// The fault-layer twins of the outage window: same midpoint,
			// same length.
			{Name: "partition, no wipe", Mod: partition(1, 2, time.Minute)},
			{Name: "server partition", Mod: partition(0, 2, time.Minute)},
		},
		Runs: systems[2:],
		Cols: []Column{
			rate("Success", "success", 9, 0, success).withCI(14, "%.1f ± %.1f%%"),
			count("Lost updates", "lost_updates", 12, 0, func(r *rtdbs.Result) float64 { return float64(r.LostUpdates) }),
			count("Log forces", "log_forces", 12, 0, func(r *rtdbs.Result) float64 { return float64(r.LogForces) }),
		},
	}
}

// faultMatrixDropRates is the drop-rate axis (the first entry is the
// clean baseline).
var faultMatrixDropRates = []float64{0, 0.02, 0.05, 0.10}

// faultMatrixPartitions is the partition-length axis: client 1 is cut
// off the LAN for this long, a quarter of the way into the measured
// window. Lengths scale with Options.Scale like every other duration.
var faultMatrixPartitions = []time.Duration{
	30 * time.Second, time.Minute, 2 * time.Minute,
}

// FaultMatrix measures the load-sharing system's resilience to
// deterministic fault injection: success rate versus message-drop rate
// and versus partition length. Each cell's fault schedule derives
// deterministically from its cell seed, so the matrix is byte-identical
// for any worker count. Columns are success (0) and the retry, drop,
// partition-drop and retransmit counters (1–4).
func FaultMatrix(o Options, n int, u float64) *Study {
	o = o.normalize()
	s := &Study{
		Name:    "faults",
		Title:   fmt.Sprintf("Fault-injection matrix on LS (%d clients, %g%% updates)", n, u*100),
		Note:    "(success mean ± 95%% CI over %d replications; counters are rounded means)",
		Key:     Column{Head: "Scenario", CSV: "scenario", W: 18},
		Clients: n,
		Update:  u,
		Runs:    systems[2:],
		Cols: []Column{
			rate("Success", "success", 14, 0, success).withCI(14, "%.1f ± %.1f%%"),
			count("Retries", "retries", 9, 0, func(r *rtdbs.Result) float64 { return float64(r.Retries) }),
			count("Dropped", "dropped", 9, 0, func(r *rtdbs.Result) float64 { return float64(r.Faults.Dropped) }),
			count("Cut drops", "partition_drops", 10, 0, func(r *rtdbs.Result) float64 { return float64(r.Faults.PartitionDrops) }),
			count("Retransmits", "retransmits", 12, 0, func(r *rtdbs.Result) float64 { return float64(r.Faults.Retransmits) }),
		},
	}
	for _, dr := range faultMatrixDropRates {
		s.Rows = append(s.Rows, Setting{
			Name: fmt.Sprintf("drop %g%%", dr*100),
			Mod:  func(c *config.Config) { c.Faults.DropRate = dr },
		})
	}
	for _, cut := range faultMatrixPartitions {
		s.Rows = append(s.Rows, Setting{
			Name: fmt.Sprintf("partition %v", cut),
			Mod:  partition(1, 4, time.Duration(float64(cut)*o.Scale)),
		})
	}
	return s
}
