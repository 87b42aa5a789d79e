package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/metrics"
	"siteselect/internal/rtdbs"
)

// This file is the parallel experiment harness: a bounded worker pool
// that fans the independent simulation cells of an experiment grid
// across goroutines. Every cell runs a self-contained simulator seeded
// by config.CellSeed, so results are a pure function of the master seed
// and the cell coordinates — bit-identical regardless of worker count
// or completion order. Aggregation happens after the pool drains, in
// cell-enumeration order, which keeps floating-point summation
// deterministic too.

// forEach runs do(i) for every i in [0,n) on a pool of at most parallel
// workers and returns the first error. After an error no new cells are
// dispatched; in-flight cells run to completion and every worker exits
// before forEach returns, so a failing cell cancels the grid cleanly
// with no goroutine leak.
func forEach(parallel, n int, do func(int) error) error {
	if n <= 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = 1
	}
	if parallel > n {
		parallel = n
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	next.Store(-1)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if e := do(i); e != nil {
					errOnce.Do(func() { err = e })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// runCells runs one labelled cell per index on the bounded pool and
// returns the results in cell order. It times every cell's wall clock,
// feeds the optional metrics.WallClock accumulator, and serializes the
// optional progress callback.
func runCells[T any](o Options, labels []string, run func(int) (T, error)) ([]T, error) {
	out := make([]T, len(labels))
	var (
		mu   sync.Mutex
		done int
	)
	err := forEach(o.Parallel, len(labels), func(i int) error {
		start := time.Now()
		v, err := run(i)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		out[i] = v
		if o.Timing != nil {
			o.Timing.Observe(elapsed)
		}
		if o.Progress != nil {
			mu.Lock()
			done++
			cell := metrics.CellDone{Label: labels[i], Elapsed: elapsed, Done: done, Total: len(labels)}
			if res, ok := any(v).(*rtdbs.Result); ok && res != nil {
				cell.Submitted = res.M.Submitted
			}
			o.Progress(cell)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunReps runs one fixed system configuration Reps times — one cell per
// replication, each with a seed derived from opts.Seed and the config's
// workload point — on the worker pool, and returns the per-replication
// results in replication order. The caller's run closure receives the
// reseeded config; everything else in cfg is untouched (no scaling).
func RunReps(opts Options, cfg config.Config, run func(config.Config) (*rtdbs.Result, error)) ([]*rtdbs.Result, error) {
	opts = opts.normalize()
	labels := make([]string, opts.Reps)
	for r := range labels {
		labels[r] = fmt.Sprintf("n=%d u=%g rep=%d", cfg.NumClients, cfg.UpdateFraction, r)
	}
	return runCells(opts, labels, func(i int) (*rtdbs.Result, error) {
		c := cfg
		c.Seed = opts.cellSeed(cfg.NumClients, cfg.UpdateFraction, i)
		return run(c)
	})
}

// cellSeed derives the seed for the simulation cell at one workload
// point. The system or variant under test is deliberately not part of
// the coordinates: all systems compared at one (clients, update, rep)
// point share the workload stream, preserving paired A/B comparisons.
func (o Options) cellSeed(clients int, update float64, rep int) int64 {
	return config.CellSeed(o.Seed, int64(clients), config.UpdateCoord(update), int64(rep))
}
