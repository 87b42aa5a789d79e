package experiment

import (
	"fmt"
	"strconv"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
)

// DefaultShardCounts is the shard sweep of the topology study: the
// single-server baseline and three multi-shard points.
var DefaultShardCounts = []int{1, 2, 4, 8}

// driftingHotSpot is the shard sweep's workload and partition. The
// access generator concentrates most reads on a hot window that slides
// several times over the run, so objects heat up and cool down no
// matter where the partition put them.
func driftingHotSpot(cfg *config.Config) {
	// Think times short enough that the hot shard saturates under the
	// static partition while total demand stays inside the cluster's
	// capacity, and deadlines tight enough that hot-shard queueing shows
	// up as misses — the regime where placement is the deciding factor.
	cfg.MeanInterArrival = 5 * time.Second
	cfg.MeanSlack = 2 * time.Second
	hot := cfg.DBSize / 500
	// Block-cyclic partition as wide as the hot window: the whole window
	// lands on one or two shards, and each drift moves that load to
	// another shard — the drifting imbalance the adaptive variant should
	// erase and the static partition cannot.
	cfg.Sharding.Block = hot
	cfg.Workload = &config.WorkloadSpec{Classes: []config.ClientClass{{
		Name:                 "drift",
		Count:                cfg.NumClients,
		UpdateFraction:       cfg.UpdateFraction,
		DecomposableFraction: cfg.DecomposableFraction,
		Phases: []config.ArrivalPhase{{
			Kind:             config.ArrivalClosed,
			MeanInterArrival: cfg.MeanInterArrival,
		}},
		Access: &config.AccessSpec{
			Kind:        config.AccessSkewed,
			ZipfTheta:   1.1,
			HotSize:     hot,
			HotFraction: 0.8,
			DriftEvery:  cfg.Duration / 6,
			DriftStep:   hot * 2,
		},
	}}}
}

// adaptiveReplication turns on heat-driven read replication; at one
// server there is nowhere to replicate to and the variant degenerates to
// the static one.
func adaptiveReplication(cfg *config.Config) {
	if cfg.Sharding.Servers > 1 {
		cfg.Sharding.ReplicateHot = 3
		cfg.Sharding.HeatWindow = cfg.Duration / 8
		cfg.Sharding.ShedBelow = 1
	}
}

// ShardSweep is the topology study: the load-sharing system re-run at
// fixed load across a sweep of server shard counts, under a
// drifting-Zipf hot spot, once with the bare object partition (static)
// and once with heat-driven read replication (adaptive). Every shard
// count and placement mode replays one workload stream (see Setting),
// so the topology is the sole variable.
//
// Columns: static (0) and adaptive (1) success; their mean total LAN
// message counts (2, 3) — replica coherence traffic is the difference;
// and per-run means of the adaptive variant's replicas installed (4),
// replicas shed (5) and requests forwarded to the home shard (6).
func ShardSweep(_ Options, n int, u float64) *Study {
	s := &Study{
		Name:    "shard-sweep",
		Title:   fmt.Sprintf("Shard-count sweep — LS-CS-RTDBS, %d clients, %g%% updates, drifting-Zipf hot spot", n, u*100),
		Note:    "(success/messages are means over %d replications)",
		Key:     Column{Head: "Shards", CSV: "shards", W: 8},
		Clients: n,
		Update:  u,
		Runs: []Setting{
			{Name: "static", Kind: rtdbs.LS},
			{Name: "adaptive", Kind: rtdbs.LS, Mod: adaptiveReplication},
		},
		Cols: []Column{
			rate("Static", "static", 14, 0, success).withCI(14, "%.1f ± %.1f"),
			rate("Adaptive", "adaptive", 14, 1, success).withCI(14, "%.1f ± %.1f"),
			mean("StaticMsgs", "static_msgs", 12, 0, "%.0f", messages),
			mean("AdaptMsgs", "adaptive_msgs", 12, 1, "%.0f", messages),
			mean("Installed", "installed", 10, 1, "%.1f", func(r *rtdbs.Result) float64 { return float64(r.ReplicasInstalled) }),
			mean("Shed", "shed", 8, 1, "%.1f", func(r *rtdbs.Result) float64 { return float64(r.ReplicasShed) }),
			mean("Forwarded", "forwarded", 10, 1, "%.1f", func(r *rtdbs.Result) float64 { return float64(r.RequestsForwarded) }),
		},
		CSVAlwaysCI: true,
	}
	for _, m := range DefaultShardCounts {
		s.Rows = append(s.Rows, Setting{Name: strconv.Itoa(m), Mod: func(c *config.Config) {
			driftingHotSpot(c)
			c.Sharding.Servers = m
		}})
	}
	return s
}
