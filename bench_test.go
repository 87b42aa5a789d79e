package siteselect_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"siteselect"
	"siteselect/internal/cache"
	"siteselect/internal/config"
	"siteselect/internal/experiment"
	"siteselect/internal/forward"
	"siteselect/internal/lockmgr"
	"siteselect/internal/rng"
	"siteselect/internal/rtdbs"
	"siteselect/internal/sched"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// benchOpts keeps the table/figure benchmarks affordable: a quarter of
// the full virtual run. Shapes survive scaling; run cmd/rtbench with
// -scale 1 for the full-length numbers recorded in EXPERIMENTS.md.
var benchOpts = experiment.Options{Scale: 0.25, Seed: 1}

// BenchmarkFigure3 regenerates Figure 3: % of transactions completed
// within their deadlines vs client count at 1% updates, for the
// centralized, client-server and load-sharing systems.
func BenchmarkFigure3(b *testing.B) {
	benchFigure(b, "Figure 3", 0.01)
}

// BenchmarkFigure3Batched runs the Figure 3 workload with a 250 ms
// server batch window, putting the batching layer's hot path (window
// timers, flush ordering, coalesced ships/recalls, grouped disk reads,
// widened group commit) under the same regression watch as the
// unbatched figure. Recorded in BENCH_kernel.json next to
// BenchmarkFigure3 so benchjson -diff warns on either regressing.
func BenchmarkFigure3Batched(b *testing.B) {
	opts := benchOpts
	opts.Set = []string{"batch-window=250ms"}
	for i := 0; i < b.N; i++ {
		f, err := experiment.Figure("Figure 3 (batched)", 0.01, opts).Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f.Value(len(f.Rows)-1, 1), "CS-at-max-clients-%")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (5% updates).
func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, "Figure 4", 0.05)
}

// BenchmarkFigure5 regenerates Figure 5 (20% updates).
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, "Figure 5", 0.20)
}

func benchFigure(b *testing.B, id string, update float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := experiment.Figure(id, update, benchOpts).Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			f.Render(&sb)
			b.Log("\n" + sb.String())
			last := len(f.Rows) - 1 // columns: CE, CS, LS
			b.ReportMetric(f.Value(last, 2)-f.Value(last, 1), "LS-CS-gap-pp")
			b.ReportMetric(f.Value(last, 0), "CE-at-max-clients-%")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (average cache hit rates).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiment.Table2().Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			t.Render(&sb)
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (average object response times by
// lock mode, 1% updates).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiment.Table3().Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			t.Render(&sb)
			b.Log("\n" + sb.String())
			last := len(t.Rows) - 1 // columns: CS SL, CS EL, LS SL, LS EL
			b.ReportMetric(t.Value(last, 1), "CS-EL-100c-s")
			b.ReportMetric(t.Value(last, 3), "LS-EL-100c-s")
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (message counts at 100 clients,
// 1% updates).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiment.Table4().Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			t.Render(&sb)
			b.Log("\n" + sb.String())
			b.ReportMetric(t.Value(1, 2), "forward-hops") // LS row, forward-list column
		}
	}
}

// BenchmarkLockProtocolMessages evaluates the Figure 1/2 closed forms.
func BenchmarkLockProtocolMessages(b *testing.B) {
	ns := []int{1, 2, 5, 10, 20}
	for i := 0; i < b.N; i++ {
		counts, err := experiment.Protocol(ns).Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if got := counts.Value(2, 2); got != 11 {
			b.Fatalf("grouped(5) = %v", got)
		}
	}
}

// BenchmarkAblationHeuristics regenerates the design-choice ablation
// called out in DESIGN.md (H1/H2/decomposition/forward lists).
func BenchmarkAblationHeuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiment.HeuristicAblation(benchOpts).Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			a.Render(&sb)
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkSingleRunLS measures one load-sharing run end to end (the
// dominant cost of every experiment above).
func BenchmarkSingleRunLS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := siteselect.DefaultConfig(siteselect.LoadSharing, 20, 0.05).Scale(0.25)
		res, err := siteselect.Run(siteselect.LoadSharing, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.M.Submitted == 0 {
			b.Fatal("empty run")
		}
	}
}

// --- microbenchmarks of the substrates ---

// BenchmarkSimKernel measures raw event throughput of the DES kernel.
func BenchmarkSimKernel(b *testing.B) {
	env := sim.NewEnv()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	env.Schedule(0, tick)
	env.RunAll()
}

// BenchmarkLockTable measures uncontended lock/release pairs.
func BenchmarkLockTable(b *testing.B) {
	t := lockmgr.NewTable()
	for i := 0; i < b.N; i++ {
		obj := lockmgr.ObjectID(i % 512)
		t.Lock(&lockmgr.Request{Obj: obj, Owner: 1, Mode: lockmgr.ModeExclusive, Deadline: time.Duration(i)})
		t.Release(obj, 1)
	}
}

// BenchmarkLockTableContended measures conflict handling with queued
// waiters and deadline ordering.
func BenchmarkLockTableContended(b *testing.B) {
	t := lockmgr.NewTable()
	for i := 0; i < b.N; i++ {
		t.Lock(&lockmgr.Request{Obj: 1, Owner: 1, Mode: lockmgr.ModeExclusive, Deadline: time.Duration(i)})
		t.Lock(&lockmgr.Request{Obj: 1, Owner: 2, Mode: lockmgr.ModeShared, Deadline: time.Duration(i + 1)})
		t.Lock(&lockmgr.Request{Obj: 1, Owner: 3, Mode: lockmgr.ModeShared, Deadline: time.Duration(i + 2)})
		t.Release(1, 1)
		t.Release(1, 2)
		t.Release(1, 3)
	}
}

// BenchmarkClientCache measures the two-tier LRU under a skewed access
// stream.
func BenchmarkClientCache(b *testing.B) {
	c := cache.New(500, 500)
	stream := rng.NewStream(1)
	z := rng.NewZipf(stream, 0.9, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := lockmgr.ObjectID(z.Rank())
		if e, _, _ := c.Lookup(obj); e == nil {
			c.Insert(obj, lockmgr.ModeShared, false, 0)
		}
	}
}

// BenchmarkEDFQueue measures push/pop of the deadline queue.
func BenchmarkEDFQueue(b *testing.B) {
	q := sched.NewEDFQueue()
	for i := 0; i < b.N; i++ {
		q.Push(&txn.Transaction{ID: txn.ID(i), Deadline: time.Duration(i % 997)})
		if q.Len() > 64 {
			q.Pop()
		}
	}
}

// BenchmarkForwardListInsert measures deadline-ordered list insertion.
func BenchmarkForwardListInsert(b *testing.B) {
	for i := 0; i < b.N; i += 16 {
		l := forward.NewList(1)
		for j := 0; j < 16; j++ {
			l.Insert(forward.Entry{Client: 1, Deadline: time.Duration((i + j) % 101)})
		}
	}
}

// BenchmarkLocalizedRW measures workload generation.
func BenchmarkLocalizedRW(b *testing.B) {
	g := rng.NewLocalizedRW(rng.NewStream(1), rng.LocalizedRWConfig{
		DBSize: 10000, ClientIndex: 3, NumClients: 100,
		RegionSize: 500, LocalFraction: 0.75, ZipfTheta: 0.9,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkCCComparison regenerates the future-work concurrency-control
// study: strict 2PL vs backward-validation OCC on the centralized
// system.
func BenchmarkCCComparison(b *testing.B) {
	opts := experiment.Options{Scale: 0.25, Seed: 1, Clients: []int{20, 60, 100}}
	for i := 0; i < b.N; i++ {
		cc, err := experiment.CCComparison(opts).Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			cc.Render(&sb)
			b.Log("\n" + sb.String())
		}
	}
}

// BenchmarkPatternSweep regenerates the access-pattern robustness sweep.
func BenchmarkPatternSweep(b *testing.B) {
	opts := benchOpts
	opts.Set = []string{"clients=40", "updates=0.05"}
	for i := 0; i < b.N; i++ {
		ps, err := experiment.PatternSweep(opts).Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			ps.Render(&sb)
			b.Log("\n" + sb.String())
		}
	}
}

// --- population-scale benchmarks of the state-machine kernel ---

// benchScale runs one client-server population of the given size and
// reports kernel-level throughput and footprint: executed events per
// wall second, the heap high-water mark, and bytes of heap per
// simulated client. The heap is sampled every few million events, which
// catches the steady-state plateau without perturbing the run.
func benchScale(b *testing.B, clients int) {
	for i := 0; i < b.N; i++ {
		c, err := rtdbs.NewClientServer(config.Scale(clients))
		if err != nil {
			b.Fatal(err)
		}
		var ms, ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var heapHW uint64
		var sinceSample int
		c.Env().SetStepHook(func() {
			if sinceSample++; sinceSample >= 4_000_000 {
				sinceSample = 0
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > heapHW {
					heapHW = ms.HeapAlloc
				}
			}
		})
		start := time.Now()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > heapHW {
			heapHW = ms.HeapAlloc
		}
		if res.M.Submitted == 0 {
			b.Fatal("empty run")
		}
		steps := c.Env().Steps()
		b.ReportMetric(float64(steps)/elapsed.Seconds(), "steps/sec")
		b.ReportMetric(float64(heapHW)/(1<<20), "heap-MB")
		b.ReportMetric(float64(heapHW)/float64(clients), "B/client")
		b.ReportMetric(float64(ms.PauseTotalNs-ms0.PauseTotalNs)/1e6, "gc-pause-ms")
		b.ReportMetric(float64(ms.NumGC-ms0.NumGC), "gc-cycles")
		b.ReportMetric(float64(res.M.Submitted), "txns")
	}
}

// BenchmarkScaleSmoke is the CI-sized population run (10k clients), the
// benchmark counterpart of scenarios/scale_smoke.rts.
func BenchmarkScaleSmoke(b *testing.B) {
	benchScale(b, 10_000)
}

// BenchmarkScale100x runs one million simulated clients — 10,000× the
// paper's maximum population — on the state-machine kernel. Feasible at
// all because machines park as a few words of state instead of a
// goroutine stack; see EXPERIMENTS.md "Running at scale".
func BenchmarkScale100x(b *testing.B) {
	benchScale(b, 1_000_000)
}
