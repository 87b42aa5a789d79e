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
//	cfg := siteselect.DefaultConfig(siteselect.LoadSharing, 20, 0.05) // 20 clients, 5% updates
//	res, err := siteselect.Run(siteselect.LoadSharing, cfg)
//	if err != nil { ... }
//	fmt.Printf("%.1f%% of transactions met their deadlines\n", res.SuccessRate())
//
// The rtbench command regenerates the paper's tables and figures, and
// rtdbsim -scenario runs the workloads under scenarios/; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package siteselect

import (
	"siteselect/internal/config"
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

// DefaultConfig returns the paper's Table 1 parameters for the given
// system with n clients and the given update fraction (0.01, 0.05 and
// 0.20 in the paper); the centralized systems get their 5,000-object
// server buffer.
func DefaultConfig(kind SystemKind, n int, updateFraction float64) Config {
	return kind.Default(n, updateFraction)
}

// Run builds and runs the selected system to completion and returns its
// metrics. The run is deterministic for a given configuration (including
// its Seed).
func Run(kind SystemKind, cfg Config) (*Result, error) {
	return rtdbs.Run(kind, cfg)
}
