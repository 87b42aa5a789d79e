package main

import "sort"

// metricDef declares one metric the benchmark prints. The same tables
// are written out in BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the base median by which the metric may
	// worsen before -compare calls it a regression (end-to-end only).
	bound float64
}

// endToEnd are the metrics a user of the simulator pays or reads: host
// seconds and bytes per simulated transaction, and the model's own
// results. Every workload reports all of them, from untraced passes
// only. The bounds were set from ten runs at ten seeds per workload
// (README, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"txn_per_s", "txn/s", "higher", 0.25},
	{"allocs_per_txn", "1/txn", "lower", 0.05},
	{"alloc_kb_per_txn", "KB/txn", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"deadline_met_pct", "%", "higher", 0.10},
	{"msgs_per_txn", "1/txn", "lower", 0.06},
	{"sim_txn_p50_s", "sim_s", "lower", 0.15},
	{"sim_txn_p99_s", "sim_s", "lower", 0.20},
}

// perLayer are the instrumented pass's numbers: exact counts read off
// rtdbs.Result, CPU-profile self-time shares bucketed by package, span
// times around the benchmark's own calls, and driver loops over each
// layer's public API. They carry no bound; they say where a moved
// end-to-end number came from.
var perLayer = []metricDef{
	{"sim.steps", "count", "lower", 0},
	{"sim.steps_per_s", "1/s", "higher", 0},
	{"sim.host_ns_per_step", "ns", "lower", 0},
	{"sim.population_falloff", "ratio", "lower", 0},
	{"sim.cpu_share", "ratio", "lower", 0},
	{"sim.schedule_step_ns.small", "ns", "lower", 0},
	{"sim.schedule_step_ns.large", "ns", "lower", 0},
	{"sim.machine_switch_ns", "ns", "lower", 0},
	{"sim.proc_switch_ns", "ns", "lower", 0},

	{"rng.cpu_share", "ratio", "lower", 0},
	{"rng.next_set_ns", "ns", "lower", 0},
	{"rng.stream_wake_ns", "ns", "lower", 0},
	{"rng.stream_bytes", "B", "lower", 0},

	{"lockmgr.grants", "count", "higher", 0},
	{"lockmgr.recalls", "count", "lower", 0},
	{"lockmgr.denies", "count", "lower", 0},
	{"lockmgr.cpu_share", "ratio", "lower", 0},
	{"lockmgr.lock_release_ns", "ns", "lower", 0},
	{"lockmgr.contended_ns", "ns", "lower", 0},
	{"lockmgr.conflict_count_ns", "ns", "lower", 0},

	{"client.cache_hit_pct", "%", "higher", 0},
	{"client.retries", "count", "lower", 0},
	{"client.cpu_share", "ratio", "lower", 0},
	{"cache.cpu_share", "ratio", "lower", 0},
	{"cache.lookup_insert_ns", "ns", "lower", 0},

	{"server.batch_flushes", "count", "lower", 0},
	{"server.batch_fill", "ratio", "higher", 0},
	{"server.replicas_installed", "count", "lower", 0},
	{"server.replicas_shed", "count", "lower", 0},
	{"server.requests_forwarded", "count", "lower", 0},
	{"server.cpu_share", "ratio", "lower", 0},
	{"batch.cpu_share", "ratio", "lower", 0},
	{"batch.add_flush_ns", "ns", "lower", 0},

	{"forward.hops", "count", "higher", 0},
	{"forward.migrations", "count", "higher", 0},
	{"loadshare.txn_ships", "count", "higher", 0},
	{"loadshare.exec_spread", "ratio", "lower", 0},
	{"forward.insert_ns", "ns", "lower", 0},
	{"loadshare.choose_site_ns", "ns", "lower", 0},
	{"sched.edf_push_pop_ns", "ns", "lower", 0},

	{"netsim.messages", "count", "lower", 0},
	{"netsim.bytes", "B", "lower", 0},
	{"netsim.bus_util", "ratio", "lower", 0},
	{"netsim.fault_drops", "count", "lower", 0},
	{"netsim.cpu_share", "ratio", "lower", 0},
	{"netsim.send_deliver_ns", "ns", "lower", 0},

	{"pagefile.disk_reads", "count", "lower", 0},
	{"pagefile.disk_writes", "count", "lower", 0},
	{"pagefile.buffer_hit_pct", "%", "higher", 0},
	{"pagefile.cpu_share", "ratio", "lower", 0},
	{"wal.cpu_share", "ratio", "lower", 0},

	{"trace.cpu_share", "ratio", "lower", 0},
	{"invariant.cpu_share", "ratio", "lower", 0},
	{"occ.cpu_share", "ratio", "lower", 0},

	{"scenario.compile_s", "s", "lower", 0},
	{"rtdbs.build_s", "s", "lower", 0},
	{"rtdbs.group_run_s.ce", "s", "lower", 0},
	{"rtdbs.group_run_s.cs", "s", "lower", 0},
	{"rtdbs.group_run_s.ls", "s", "lower", 0},
	{"rtdbs.group_run_s.lossy", "s", "lower", 0},
	{"rtdbs.group_run_s.occ", "s", "lower", 0},
	{"rtdbs.group_run_s.checked", "s", "lower", 0},
	{"rtdbs.live_heap_kb_per_client", "KB", "lower", 0},

	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.alloc_cpu_share", "ratio", "lower", 0},
	{"runtime.maps_cpu_share", "ratio", "lower", 0},
	{"runtime.sched_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"other.cpu_share", "ratio", "lower", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.calib_ns", "ns", "lower", 0},
	{"bench.profile_samples", "count", "higher", 0},
}

// median returns the middle of vs (mean of the middle two when even).
// It panics on an empty slice: every caller has at least one pass.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one metric's value in the result file: the median over the
// passes it was measured on, with the extremes and the pass count
// beside it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarize(unit string, vs []float64) sample {
	s := sample{Value: median(vs), Unit: unit, Min: vs[0], Max: vs[0], N: len(vs)}
	for _, v := range vs {
		s.Min = min(s.Min, v)
		s.Max = max(s.Max, v)
	}
	return s
}
