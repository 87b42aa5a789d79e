// Package siteselect reproduces "Site Selection for Real-Time Client
// Request Handling" (Kanitkar & Delis, ICDCS 1999): a client-server
// real-time database in which transactions, data objects, or both are
// moved to the site most likely to meet each transaction's deadline.
//
// The package simulates three system configurations over a deterministic
// discrete-event kernel:
//
//   - Centralized (CE-RTDBS): the server executes every transaction;
//     clients are terminals.
//   - ClientServer (CS-RTDBS): object shipping with client caching and
//     callback locking.
//   - LoadSharing (LS-CS-RTDBS): the paper's contribution — H1/H2
//     heuristics, transaction shipping and decomposition, and grouped
//     object migration along forward lists.
//
// Quick start:
//
//	cfg := siteselect.DefaultConfig(20, 0.05) // 20 clients, 5% updates
//	res, err := siteselect.Run(siteselect.LoadSharing, cfg)
//	if err != nil { ... }
//	fmt.Printf("%.1f%% of transactions met their deadlines\n", res.SuccessRate())
//
// The experiment entry points (Figure3, Table2, ...) regenerate the
// paper's tables and figures; see EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package siteselect

import (
	"siteselect/internal/config"
	"siteselect/internal/experiment"
	"siteselect/internal/rtdbs"
)

// Config parameterizes a simulated system; see the field documentation
// in the type for the paper's Table 1 values.
type Config = config.Config

// Result is the outcome of one simulated run.
type Result = rtdbs.Result

// SystemKind selects one of the paper's three configurations (or the
// optimistic centralized variant); its String names the system the way
// the paper does.
type SystemKind = rtdbs.Kind

// System configurations.
const (
	// Centralized is the CE-RTDBS.
	Centralized = rtdbs.CE
	// ClientServer is the basic object-shipping CS-RTDBS.
	ClientServer = rtdbs.CS
	// LoadSharing is the LS-CS-RTDBS running the paper's algorithm.
	LoadSharing = rtdbs.LS
	// CentralizedOptimistic is the CE-RTDBS with backward-validation
	// optimistic concurrency control instead of 2PL — the concurrency
	// control study the paper's conclusion names as future work.
	CentralizedOptimistic = rtdbs.CEOCC
)

// Re-exported configuration enums, so callers can set policy knobs
// without importing internal packages.
const (
	// Access patterns.
	PatternLocalizedRW = config.PatternLocalizedRW
	PatternUniform     = config.PatternUniform
	PatternHotCold     = config.PatternHotCold
	// Deadline policies.
	DeadlineLengthPlusSlack = config.DeadlineLengthPlusSlack
	DeadlineIndependent     = config.DeadlineIndependent
	// Scheduling policies.
	SchedEDF  = config.SchedEDF
	SchedFCFS = config.SchedFCFS
	// Interconnect topologies.
	TopologySharedBus = config.TopologySharedBus
	TopologySwitched  = config.TopologySwitched
)

// DefaultConfig returns the paper's Table 1 parameters for a
// client-server system with n clients and the given update fraction
// (0.01, 0.05 and 0.20 in the paper).
func DefaultConfig(n int, updateFraction float64) Config {
	return config.Default(n, updateFraction)
}

// DefaultCentralizedConfig returns the Table 1 parameters for the
// centralized system (5,000-object server buffer).
func DefaultCentralizedConfig(n int, updateFraction float64) Config {
	return config.DefaultCentralized(n, updateFraction)
}

// Run builds and runs the selected system to completion and returns its
// metrics. The run is deterministic for a given configuration (including
// its Seed).
func Run(kind SystemKind, cfg Config) (*Result, error) {
	return rtdbs.Run(kind, cfg)
}

// Experiment types and entry points, re-exported for the benchmark
// harness and the rtbench command.
type (
	// Options tunes experiment runs (scale, seed, client sweep).
	Options = experiment.Options
	// Table is the outcome of any experiment: aggregated values by (row,
	// column) with text, CSV and chart renderings.
	Table = experiment.Table
)

// Figure3 reproduces Figure 3 (1% updates). Columns 0–2 are the CE, CS
// and LS success percentages, one row per client count.
func Figure3(opts Options) (*Table, error) {
	return experiment.Figure("Figure 3", 0.01, opts).Run(opts)
}

// Figure4 reproduces Figure 4 (5% updates).
func Figure4(opts Options) (*Table, error) {
	return experiment.Figure("Figure 4", 0.05, opts).Run(opts)
}

// Figure5 reproduces Figure 5 (20% updates).
func Figure5(opts Options) (*Table, error) {
	return experiment.Figure("Figure 5", 0.20, opts).Run(opts)
}

// RunTable2 reproduces Table 2 (cache hit rates).
func RunTable2(opts Options) (*Table, error) { return experiment.Table2().Run(opts) }

// RunTable3 reproduces Table 3 (object response times, 1% updates).
func RunTable3(opts Options) (*Table, error) { return experiment.Table3().Run(opts) }

// RunTable4 reproduces Table 4 (message counts, 100 clients, 1%
// updates).
func RunTable4(opts Options) (*Table, error) { return experiment.Table4().Run(opts) }
