package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/metrics"
	"siteselect/internal/rtdbs"
)

func TestForEachRunsAllCells(t *testing.T) {
	for _, parallel := range []int{0, 1, 3, 16} {
		var ran [25]atomic.Int64
		err := forEach(parallel, len(ran), func(i int) error {
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("parallel=%d: cell %d ran %d times", parallel, i, got)
			}
		}
	}
}

func TestForEachEmptyGrid(t *testing.T) {
	if err := forEach(4, 0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachErrorCancels exercises the pool's error path: one failing
// cell surfaces its error, dispatch of pending cells stops, and every
// worker goroutine exits before forEach returns.
func TestForEachErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	const n = 200
	goroutines := runtime.NumGoroutine()
	var started atomic.Int64
	err := forEach(4, n, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Workers stop claiming cells once a failure is flagged; only cells
	// already in flight finish. Far fewer than the full grid may start.
	if got := started.Load(); got >= n {
		t.Fatalf("all %d cells started despite early failure", got)
	}
	// forEach waits for its workers, so the goroutine count settles back
	// to the pre-call level (allow the runtime a moment to reap).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("goroutines leaked: %d before, %d after", goroutines, got)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	// Every cell fails; exactly one error must surface and the call must
	// still return (no deadlock on the shared error slot).
	err := forEach(8, 50, func(i int) error { return fmt.Errorf("cell %d", i) })
	if err == nil || !strings.HasPrefix(err.Error(), "cell ") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCellsProgressAndTiming(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e"}
	var (
		mu    sync.Mutex
		calls []metrics.CellDone
	)
	wall := &metrics.WallClock{}
	o := Options{
		Parallel: 3,
		Timing:   wall,
		Progress: func(c metrics.CellDone) {
			mu.Lock()
			calls = append(calls, c)
			mu.Unlock()
		},
	}
	out, err := runCells(o, labels, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if len(calls) != len(labels) {
		t.Fatalf("progress calls = %d", len(calls))
	}
	seen := map[string]bool{}
	for i, c := range calls {
		// The harness serializes the callback and counts completions, so
		// Done is the 1-based call order even though cells finish in any
		// order.
		if c.Done != i+1 || c.Total != len(labels) {
			t.Fatalf("call %d = %+v", i, c)
		}
		if c.Elapsed < 0 {
			t.Fatalf("negative elapsed: %+v", c)
		}
		seen[c.Label] = true
	}
	for _, l := range labels {
		if !seen[l] {
			t.Fatalf("label %q never reported", l)
		}
	}
	if s := wall.Stats(); s.Count != int64(len(labels)) {
		t.Fatalf("wall clock observed %d cells", s.Count)
	}
}

func TestRunCellsError(t *testing.T) {
	boom := errors.New("cell failed")
	out, err := runCells(Options{Parallel: 2}, []string{"a", "b", "c"}, func(i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestFigureDeterministicAcrossWorkerCounts is the determinism
// regression test: the same sweep run serially and with eight workers
// must render byte-identical output, because every cell's seed is
// derived from the master seed and the cell coordinates alone.
func TestFigureDeterministicAcrossWorkerCounts(t *testing.T) {
	render := func(parallel int) (string, string) {
		f, err := RunFigure("Figure 3", 0.01, Options{
			Scale: 0.05, Seed: 42, Clients: []int{4, 6}, Reps: 2, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		var text, csv strings.Builder
		f.Render(&text)
		f.CSV(&csv)
		return text.String(), csv.String()
	}
	text1, csv1 := render(1)
	text8, csv8 := render(8)
	if text1 != text8 {
		t.Fatalf("rendered output differs across worker counts:\n-- parallel=1 --\n%s\n-- parallel=8 --\n%s", text1, text8)
	}
	if csv1 != csv8 {
		t.Fatalf("CSV differs across worker counts:\n-- parallel=1 --\n%s\n-- parallel=8 --\n%s", csv1, csv8)
	}
}

// Paired comparison invariant: the seed for a cell depends on the
// workload point, not the system under test, so CE/CS/LS at one point
// all see the same workload stream.
func TestCellSeedSharedAcrossSystems(t *testing.T) {
	o := Options{Seed: 9}.normalize()
	cs := o.csConfig(8, 0.05, 0)
	ce := o.ceConfig(8, 0.05, 0)
	if cs.Seed != ce.Seed {
		t.Fatalf("CS seed %d != CE seed %d at the same cell", cs.Seed, ce.Seed)
	}
	if other := o.csConfig(8, 0.05, 1); other.Seed == cs.Seed {
		t.Fatal("distinct replications share a seed")
	}
}

func TestRunReps(t *testing.T) {
	o := Options{Seed: 3, Reps: 3, Parallel: 2}
	cfg := Options{Scale: 0.05, Seed: 3}.normalize().csConfig(4, 0.05, 0)
	seen := make(map[int64]bool)
	var mu sync.Mutex
	results, err := RunReps(o, cfg, func(c config.Config) (*rtdbs.Result, error) {
		mu.Lock()
		seen[c.Seed] = true
		mu.Unlock()
		return rtdbs.Run(rtdbs.CS, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(seen) != 3 {
		t.Fatalf("results=%d distinct seeds=%d", len(results), len(seen))
	}
	for i, r := range results {
		if r == nil || r.M.Submitted == 0 {
			t.Fatalf("rep %d empty result", i)
		}
	}
}
