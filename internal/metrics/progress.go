package metrics

import (
	"sync"
	"time"
)

// CellDone reports the completion of one experiment cell — a single
// independent simulation in a fanned-out experiment grid.
type CellDone struct {
	// Label identifies the cell (experiment, system, operating point,
	// replication).
	Label string
	// Elapsed is the cell's wall-clock running time.
	Elapsed time.Duration
	// Done and Total are the grid's completion count after this cell
	// and its overall size.
	Done, Total int
	// Submitted counts the cell's transactions (zero unless it is one run).
	Submitted int64
}

// ProgressFunc observes cell completions. The experiment harness
// serializes calls, so implementations need no locking of their own.
type ProgressFunc func(CellDone)

// WallClock accumulates per-cell wall-clock timings across a run. It is
// safe for concurrent use by the worker pool.
type WallClock struct {
	mu sync.Mutex
	d  DurStats
}

// Observe records one cell's wall-clock time.
func (w *WallClock) Observe(d time.Duration) {
	w.mu.Lock()
	w.d.Observe(d)
	w.mu.Unlock()
}

// Stats returns a snapshot of the accumulated timings.
func (w *WallClock) Stats() DurStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.d
}
