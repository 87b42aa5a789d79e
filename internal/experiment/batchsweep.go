package experiment

import (
	"fmt"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/rtdbs"
	"siteselect/internal/trace"
)

// DefaultBatchWindows is the window sweep of the batching study: off,
// a window well under the request round-trip, and one that coalesces a
// substantial share of concurrent requests while staying far below the
// 20 s mean slack.
var DefaultBatchWindows = []time.Duration{0, 250 * time.Millisecond, time.Second}

// BatchSweep is the batching study: the client-server system re-run at
// fixed load across a sweep of Config.BatchWindow values, traced so
// every missed transaction is classified by dominant slack component.
// Window 0 is the unbatched baseline; the sweep shows the lock-wait
// miss share and the message count falling as the server grants each
// window's compatible requests together. Every window replays one
// workload stream (see Setting), so the window is the sole variable.
//
// Columns: success (0); the miss census summed over replications —
// missed (1) and the lock-wait-dominated subset (2) — and their ratio
// as a percentage for text (3) and a fraction for CSV (4); then per-run
// means of total LAN messages (5), batch-window closes (6) and requests
// that shared a window (7).
func BatchSweep(o Options) *Study {
	share := func(_ Setting, col func(int) float64) float64 {
		if col(1) == 0 {
			return 0
		}
		return col(2) / col(1)
	}
	s := o.atPoint(&Study{
		Name:  "batch-sweep",
		Title: "Batch-window sweep — CS-RTDBS, %d clients, %g%% updates",
		Note:  "(success/messages are means over %d replications; the miss census is summed)",
		Key:   Column{Head: "Window", CSV: "window_ms", W: 10},
		Runs:  systems[1:2],
		Cols: []Column{
			rate("Success", "success", 12, 0, success).withCI(12, "%.1f ± %.1f"),
			census("Missed", "missed", 8, missed),
			census("lock-wait", "lock_wait", 10, missedBy(trace.CompLockWait)),
			{Head: "lw-share", W: 12, Text: "%.1f%%", Derive: func(row Setting, col func(int) float64) float64 { return 100 * share(row, col) }},
			{CSV: "lock_wait_share", CSVVerb: "%.4f", Derive: share},
			mean("Messages", "messages", 12, 0, "%.0f", messages),
			mean("Flushes", "flushes", 10, 0, "%.0f", func(r *rtdbs.Result) float64 { return float64(r.BatchFlushes) }),
			mean("Batched", "batched", 10, 0, "%.0f", func(r *rtdbs.Result) float64 { return float64(r.BatchedRequests) }),
		},
		CSVAlwaysCI: true,
	})
	for _, w := range DefaultBatchWindows {
		s.Rows = append(s.Rows, Setting{
			Name: w.String(),
			CSV:  fmt.Sprintf("%g", float64(w)/float64(time.Millisecond)),
			Mod: func(c *config.Config) {
				c.BatchWindow = w
				c.Trace = true
			},
		})
	}
	return s
}
