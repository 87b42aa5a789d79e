// Package rtdbs assembles the three systems the paper evaluates —
// CE-RTDBS (centralized), CS-RTDBS (basic object-shipping
// client-server), and LS-CS-RTDBS (client-server with the load-sharing
// algorithm) — and runs them to completion, producing the metrics the
// paper's tables and figures report.
package rtdbs

import (
	"math"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/trace"
)

// Result is the outcome of one simulated run.
type Result struct {
	Config config.Config
	// M holds transaction, cache and response-time statistics.
	M *metrics.Collector

	// Messages maps message kinds to their traffic counters (Table 4).
	Messages map[netsim.Kind]netsim.KindStats
	// TotalMessages and TotalBytes summarize all LAN traffic.
	TotalMessages int64
	TotalBytes    int64
	// NetUtilization is the bus busy fraction.
	NetUtilization float64

	// ServerBufferHitRate is the server pool hit rate; ServerDiskReads
	// and ServerDiskWrites count device operations.
	ServerBufferHitRate float64
	ServerDiskReads     int64
	ServerDiskWrites    int64

	// Server protocol counters.
	RecallsSent       int64
	GrantsShipped     int64
	MigrationsStarted int64
	ForwardHops       int64
	DeniesExpired     int64
	DeniesDeadlock    int64

	// BatchFlushes counts server batch-window closes and
	// BatchedRequests the requests that shared a window with at least
	// one other request; both are zero when Config.BatchWindow is 0.
	BatchFlushes    int64
	BatchedRequests int64

	// Sharding counters, summed over server shards (all zero at a
	// single server): read replicas installed and shed by the adaptive
	// replication layer, and firm requests a shard re-routed to the
	// object's home shard.
	ReplicasInstalled int64
	ReplicasShed      int64
	RequestsForwarded int64

	// Faults holds the injected-fault counters (zero-valued when fault
	// injection is off); Retries counts client request retransmissions.
	Faults  netsim.FaultStats
	Retries int64

	// LostUpdates counts committed-but-unreturned updates wiped by a
	// client outage and LogForces the physical forces of the clients'
	// write-ahead logs, both summed over clients (client-server systems).
	LostUpdates int64
	LogForces   int64

	// Restarts counts read-phase re-executions after a failed
	// validation; Validations and Conflicts are the validator's outcome
	// counters (optimistic centralized system only).
	Restarts    int64
	Validations int64
	Conflicts   int64

	// MissCauses aggregates missed transactions by dominant attribution
	// component (set only when the run traced, i.e. Config.Trace).
	MissCauses *trace.MissTable

	// ExecutedPerSite counts committed transactions by executing site
	// (client-server systems only); Spread is their coefficient of
	// variation — load sharing should push it down.
	ExecutedPerSite map[netsim.SiteID]int64

	// Elapsed is the virtual time simulated.
	Elapsed time.Duration
}

// ExecSpread returns the coefficient of variation (stddev/mean) of the
// per-site executed-transaction counts; zero when unavailable.
func (r *Result) ExecSpread() float64 {
	if len(r.ExecutedPerSite) == 0 {
		return 0
	}
	var sum float64
	for _, n := range r.ExecutedPerSite {
		sum += float64(n)
	}
	mean := sum / float64(len(r.ExecutedPerSite))
	if mean == 0 {
		return 0
	}
	var sq float64
	for _, n := range r.ExecutedPerSite {
		d := float64(n) - mean
		sq += d * d
	}
	return math.Sqrt(sq/float64(len(r.ExecutedPerSite))) / mean
}

// SuccessRate returns the percentage (0–100) of transactions that
// completed within their deadlines.
func (r *Result) SuccessRate() float64 { return 100 * r.M.SuccessRate() }

// CacheHitRate returns the percentage (0–100) of object accesses served
// from the executing site's cache.
func (r *Result) CacheHitRate() float64 { return 100 * r.M.CacheHitRate() }

func messageSnapshot(net *netsim.Network) map[netsim.Kind]netsim.KindStats {
	out := make(map[netsim.Kind]netsim.KindStats, netsim.NumKinds-1)
	for k := netsim.KindObjectRequest; k < netsim.NumKinds; k++ {
		out[k] = net.Stats(k)
	}
	return out
}

// Metric is one scalar of a Result that reports and assertions address
// by name.
type Metric struct {
	Name string
	Get  func(*Result) float64
	// Verb formats the value on the metric's own line of a scenario
	// report (counts print as "%.0f"). Metrics without one have no line
	// of their own (the sharding counters share a conditional line).
	Verb string
}

// Metrics declares the named scalars once, in report order: the .rts
// expect namespace, its compile-time validation and the scalar lines of
// a scenario report all read this table. The message, miss-cause and
// fault counters take an argument and are named by the types that own
// them (netsim.Kind, trace.Component, netsim.FaultCounters).
var Metrics = []Metric{
	{"submitted", func(r *Result) float64 { return float64(r.M.Submitted) }, "%.0f"},
	{"committed", func(r *Result) float64 { return float64(r.M.Committed) }, "%.0f"},
	{"missed", func(r *Result) float64 { return float64(r.M.Missed) }, "%.0f"},
	{"aborted", func(r *Result) float64 { return float64(r.M.Aborted) }, "%.0f"},
	{"success_rate", (*Result).SuccessRate, "%.2f%%"},
	{"cache_hit_rate", (*Result).CacheHitRate, "%.2f%%"},
	{"total_messages", func(r *Result) float64 { return float64(r.TotalMessages) }, "%.0f"},
	{"total_bytes", func(r *Result) float64 { return float64(r.TotalBytes) }, "%.0f"},
	{"net_utilization", func(r *Result) float64 { return r.NetUtilization }, "%.4f"},
	{"retries", func(r *Result) float64 { return float64(r.Retries) }, "%.0f"},
	{"forward_hops", func(r *Result) float64 { return float64(r.ForwardHops) }, "%.0f"},
	{"exec_spread", (*Result).ExecSpread, "%.4f"},
	{"replicas_installed", func(r *Result) float64 { return float64(r.ReplicasInstalled) }, ""},
	{"replicas_shed", func(r *Result) float64 { return float64(r.ReplicasShed) }, ""},
	{"requests_forwarded", func(r *Result) float64 { return float64(r.RequestsForwarded) }, ""},
}

// MetricByName returns the scalar metric called name.
func MetricByName(name string) (Metric, bool) {
	for _, m := range Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
